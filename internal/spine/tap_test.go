package spine_test

import (
	"reflect"
	"testing"
	"time"

	evs "repro"
	"repro/internal/model"
)

// TestTapSeesEveryDeliverEventWithoutHistory runs one seeded schedule
// twice, once retaining the history and once with DiscardHistory and an
// OnTrace tap. The tap must see the same deliver events, in the same
// order, as the retained history holds: the host derives the event from
// each Deliver whenever something reads the trace, including the Step 6
// deliveries of a partition's recovery.
func TestTapSeesEveryDeliverEventWithoutHistory(t *testing.T) {
	run := func(discard bool) (history, tapped []model.Event) {
		g := evs.NewGroup(evs.Options{NumProcesses: 4, Seed: 7, DiscardHistory: discard})
		g.OnTrace = func(e model.Event) {
			if e.Type == model.EventDeliver {
				tapped = append(tapped, e)
			}
		}
		ids := g.IDs()
		for i := 0; i < 60; i++ {
			svc := evs.Agreed
			if i%2 == 1 {
				svc = evs.Safe
			}
			g.Send(time.Duration(i)*time.Millisecond/2, ids[i%len(ids)], []byte{byte(i)}, svc)
		}
		g.Partition(10*time.Millisecond, ids[:2], ids[2:])
		g.Merge(200 * time.Millisecond)
		g.Run(time.Second)
		for _, e := range g.History() {
			if e.Type == model.EventDeliver {
				history = append(history, e)
			}
		}
		return history, tapped
	}
	retained, tapRetained := run(false)
	discarded, tapDiscarded := run(true)
	transitional := 0
	for _, e := range retained {
		if e.Config.IsTransitional() {
			transitional++
		}
	}
	if len(retained) == 0 || transitional == 0 {
		t.Fatalf("the schedule delivered %d messages, %d in a transitional configuration; it must exercise both paths", len(retained), transitional)
	}
	if len(discarded) != 0 {
		t.Fatalf("DiscardHistory retained %d deliver events", len(discarded))
	}
	if !reflect.DeepEqual(tapRetained, retained) {
		t.Fatalf("the tap and the retained history disagree: %d vs %d deliver events", len(tapRetained), len(retained))
	}
	if !reflect.DeepEqual(tapDiscarded, retained) {
		t.Fatalf("without history the tap saw %d deliver events, the retained history holds %d (or they differ in order)", len(tapDiscarded), len(retained))
	}
}
