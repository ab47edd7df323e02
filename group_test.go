package evs

import (
	"fmt"
	"testing"
	"time"
)

func requireCleanGroup(t *testing.T, g *Group, settled bool) {
	t.Helper()
	if vs := g.Check(settled); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("violation: %v", v)
		}
		t.Fatalf("%d specification violations", len(vs))
	}
}

func requireCleanVS(t *testing.T, g *Group, settled bool) {
	t.Helper()
	if vs := g.CheckVS(settled); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("vs violation: %v", v)
		}
		t.Fatalf("%d virtual synchrony violations", len(vs))
	}
}

func TestGroupQuickstart(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 3, Seed: 1})
	ids := g.IDs()
	g.Send(100*time.Millisecond, ids[0], []byte("hello"), Safe)
	g.Run(500 * time.Millisecond)
	for _, id := range ids {
		ds := g.Deliveries(id)
		if len(ds) != 1 || string(ds[0].Payload) != "hello" {
			t.Fatalf("%s deliveries %v", id, ds)
		}
		if ds[0].Msg.Sender != ids[0] || ds[0].Service != Safe {
			t.Fatalf("%s delivery metadata %+v", id, ds[0])
		}
	}
	requireCleanGroup(t, g, true)
}

func TestGroupPrimaryLayerMarksMajority(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 5, Seed: 2, EnablePrimary: true})
	ids := g.IDs()
	g.Partition(300*time.Millisecond, ids[:3], ids[3:])
	g.Run(time.Second)

	// The majority side {p1,p2,p3} must have decided primary; the
	// minority side must have decided non-primary.
	lastVerdict := func(id ProcessID) *PrimaryEvent {
		evs := g.PrimaryEvents(id)
		if len(evs) == 0 {
			return nil
		}
		return &evs[len(evs)-1]
	}
	for _, id := range ids[:3] {
		v := lastVerdict(id)
		if v == nil || !v.Primary {
			t.Fatalf("%s: majority side verdict %+v, want primary", id, v)
		}
	}
	for _, id := range ids[3:] {
		v := lastVerdict(id)
		if v == nil || v.Primary {
			t.Fatalf("%s: minority side verdict %+v, want non-primary", id, v)
		}
	}
	requireCleanGroup(t, g, true)
}

func TestGroupPrimaryUniquenessUnderChurn(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 5, Seed: 3, EnablePrimary: true})
	ids := g.IDs()
	g.Partition(250*time.Millisecond, ids[:3], ids[3:])
	g.Partition(500*time.Millisecond, ids[:2], ids[2:])
	g.Merge(750 * time.Millisecond)
	g.Partition(1000*time.Millisecond, ids[1:], ids[:1])
	g.Merge(1250 * time.Millisecond)
	g.Run(2 * time.Second)
	// Check() includes primary Uniqueness and Continuity.
	requireCleanGroup(t, g, true)
}

func TestGroupVSLayerDeliversInViews(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 3, Seed: 4, EnableVS: true})
	ids := g.IDs()
	g.Send(300*time.Millisecond, ids[0], []byte("m1"), Safe)
	g.Send(350*time.Millisecond, ids[1], []byte("m2"), Safe)
	g.Run(time.Second)

	for _, id := range ids {
		var views, delivers int
		for _, e := range g.VSEvents(id) {
			if e.ViewChange != nil {
				views++
			}
			if e.Deliver != nil {
				delivers++
			}
		}
		if views == 0 {
			t.Fatalf("%s saw no view changes", id)
		}
		if delivers != 2 {
			t.Fatalf("%s saw %d VS deliveries, want 2", id, delivers)
		}
	}
	requireCleanVS(t, g, true)
	requireCleanGroup(t, g, true)
}

func TestGroupVSBlocksNonPrimary(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 5, Seed: 5, EnableVS: true})
	ids := g.IDs()
	g.Partition(300*time.Millisecond, ids[:3], ids[3:])
	// Traffic in both components.
	g.Send(700*time.Millisecond, ids[0], []byte("maj"), Safe)
	g.Send(700*time.Millisecond, ids[3], []byte("min"), Safe)
	g.Run(1500 * time.Millisecond)

	// EVS delivers in both components...
	if ds := g.Deliveries(ids[4]); len(ds) == 0 {
		t.Fatal("EVS should deliver in the minority component")
	}
	// ...but the VS layer blocks the minority.
	for _, id := range ids[3:] {
		for _, e := range g.VSEvents(id) {
			if e.Deliver != nil && string(e.Deliver.Payload) == "min" {
				t.Fatalf("%s: VS layer delivered in a non-primary component", id)
			}
		}
	}
	// The majority's VS layer delivers.
	found := false
	for _, e := range g.VSEvents(ids[0]) {
		if e.Deliver != nil && string(e.Deliver.Payload) == "maj" {
			found = true
		}
	}
	if !found {
		t.Fatal("majority VS layer should deliver")
	}
	requireCleanVS(t, g, true)
	requireCleanGroup(t, g, true)
}

func TestGroupVSMergeSplitsViews(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 4, Seed: 6, EnableVS: true})
	ids := g.IDs()
	g.Partition(300*time.Millisecond, ids[:3], ids[3:])
	g.Merge(600 * time.Millisecond)
	g.Run(1500 * time.Millisecond)

	// On the merge back to 4 members, the incumbent p1 must see the
	// re-merge of p4 as (at least one) single-process view extension.
	var memberships []string
	for _, e := range g.VSEvents(ids[0]) {
		if e.ViewChange != nil {
			memberships = append(memberships, e.ViewChange.Members.String())
		}
	}
	last := memberships[len(memberships)-1]
	if last != "{p01,p02,p03,p04}" {
		t.Fatalf("final view %s, want all four (views: %v)", last, memberships)
	}
	requireCleanVS(t, g, true)
	requireCleanGroup(t, g, true)
}

func TestGroupCrashRecoverWithVS(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 3, Seed: 7, EnableVS: true})
	ids := g.IDs()
	g.Send(300*time.Millisecond, ids[0], []byte("a"), Safe)
	g.Crash(400*time.Millisecond, ids[2])
	g.Send(600*time.Millisecond, ids[0], []byte("b"), Safe)
	g.Recover(800*time.Millisecond, ids[2])
	g.Send(1300*time.Millisecond, ids[1], []byte("c"), Safe)
	g.Run(2 * time.Second)

	// The recovered process rejoins the primary and sees "c".
	found := false
	for _, e := range g.VSEvents(ids[2]) {
		if e.Deliver != nil && string(e.Deliver.Payload) == "c" {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovered process's VS layer missed post-recovery traffic")
	}
	requireCleanVS(t, g, true)
	requireCleanGroup(t, g, true)
}

func TestGroupDeterminism(t *testing.T) {
	run := func() string {
		g := NewGroup(Options{NumProcesses: 4, Seed: 99, EnableVS: true})
		ids := g.IDs()
		for i := 0; i < 8; i++ {
			g.Send(time.Duration(200+30*i)*time.Millisecond, ids[i%4], []byte(fmt.Sprintf("m%d", i)), Safe)
		}
		g.Partition(350*time.Millisecond, ids[:2], ids[2:])
		g.Merge(700 * time.Millisecond)
		g.Run(1500 * time.Millisecond)
		out := ""
		for _, e := range g.History() {
			out += e.String() + "\n"
		}
		return out
	}
	if run() != run() {
		t.Fatal("group executions must replay deterministically")
	}
}

func TestGroupOperationalAndMode(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 3, Seed: 8})
	g.Run(500 * time.Millisecond)
	ops := g.Operational()
	if len(ops) != 1 {
		t.Fatalf("operational %v, want one configuration", ops)
	}
	for _, id := range g.IDs() {
		if g.Mode(id) != "operational" {
			t.Fatalf("%s mode %s", id, g.Mode(id))
		}
	}
	if g.Network().Stats().Broadcasts == 0 {
		t.Fatal("expected network traffic")
	}
	if rec := g.StableRecord(g.IDs()[0]); rec.LastRegular.ID.IsZero() {
		t.Fatal("stable record should hold the installed configuration")
	}
}

// TestVSSubmitDoesNotCopyTheWindow: an accepted submission on a VS-enabled
// group traces its send for the model checker with the identifier the node
// just minted. Reading it must not copy the persisted record, whose message
// log holds the retained window: the allocations of a submission are the
// same over an empty window and over one holding thousands of messages.
func TestVSSubmitDoesNotCopyTheWindow(t *testing.T) {
	g := NewGroup(Options{NumProcesses: 3, Seed: 4, EnableVS: true})
	id := g.IDs()[0]
	g.Run(500 * time.Millisecond)
	perSubmit := func() float64 {
		return testing.AllocsPerRun(20, func() {
			if err := g.Submit(id, []byte("x"), Agreed); err != nil {
				t.Fatal(err)
			}
		})
	}
	empty := perSubmit()
	for i := 0; i < 2000; i++ {
		if err := g.Submit(id, []byte("fill"), Agreed); err != nil {
			t.Fatal(err)
		}
	}
	g.Run(g.Now() + 2*time.Second)
	// Below the trim threshold every delivered message is still retained.
	if n := g.DeliveryCount(id); n < 2000 || g.StableRecord(id).TrimmedUpTo != 0 {
		t.Fatalf("delivered %d with trimmed prefix %d; want a retained window of at least 2000", n, g.StableRecord(id).TrimmedUpTo)
	}
	views := 0
	for _, e := range g.VSEvents(id) {
		if e.ViewChange != nil {
			views++
		}
	}
	if views == 0 {
		t.Fatal("the VS layer never installed a view: submissions are not traced")
	}
	if full := perSubmit(); full > empty+1 {
		t.Fatalf("a VS submission allocates %.0f times over the retained window, %.0f over an empty one", full, empty)
	}
}
