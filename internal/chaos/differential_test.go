package chaos

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	evs "repro"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/spec/refcheck"
)

// compareCheckers judges the same history with the production checker and
// the reference implementation and fails the test on any difference in
// the violation multisets.
func compareCheckers(t *testing.T, label string, events []model.Event, opts spec.Options) {
	t.Helper()
	got := render(spec.NewChecker(events, opts).CheckAll())
	want := render(refcheck.CheckAll(events, opts))
	if len(got) != len(want) {
		t.Fatalf("%s: checker found %d violations, reference found %d\n got: %v\nwant: %v",
			label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: violation %d differs\n got: %s\nwant: %s", label, i, got[i], want[i])
		}
	}
}

func render(vs []spec.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	sort.Strings(out)
	return out
}

// mutate corrupts a chaos-generated history so the checkers have real
// violations to agree on: drop an event, duplicate a delivery, swap two
// adjacent events, relabel a delivery's configuration, move a delivery
// into a transitional configuration its process did not install (outside
// the process's com zone), or remove one process's delivery from a
// configuration whose other members kept theirs (unequal delivered sets).
func mutate(rng *rand.Rand, events []model.Event) []model.Event {
	out := append([]model.Event(nil), events...)
	if len(out) < 4 {
		return out
	}
	for k := 0; k < 1+rng.Intn(3); k++ {
		switch rng.Intn(6) {
		case 0: // drop
			i := rng.Intn(len(out))
			out = append(out[:i], out[i+1:]...)
		case 1: // duplicate a delivery
			for try := 0; try < 20; try++ {
				i := rng.Intn(len(out))
				if out[i].Type == model.EventDeliver {
					dup := out[i]
					out = append(out[:i+1], append([]model.Event{dup}, out[i+1:]...)...)
					break
				}
			}
		case 2: // swap adjacent
			i := rng.Intn(len(out) - 1)
			out[i], out[i+1] = out[i+1], out[i]
		case 3: // relabel a delivery's configuration
			for try := 0; try < 20; try++ {
				i := rng.Intn(len(out))
				if out[i].Type == model.EventDeliver {
					out[i].Config = model.RegularID(77, out[i].Proc)
					break
				}
			}
		case 4: // move a delivery out of its process's com zone
			for try := 0; try < 20; try++ {
				i := rng.Intn(len(out))
				if out[i].Type == model.EventDeliver {
					out[i].Config = uninstalledTransitional(out, out[i].Proc, out[i].Config.Prev())
					break
				}
			}
		case 5: // remove a delivery other members of its configuration kept
			for try := 0; try < 20; try++ {
				i := rng.Intn(len(out))
				e := out[i]
				if e.Type == model.EventDeliver && slices.ContainsFunc(out, func(f model.Event) bool {
					return f.Type == model.EventDeliver && f.Msg == e.Msg && f.Config == e.Config && f.Proc != e.Proc
				}) {
					out = append(out[:i], out[i+1:]...)
					break
				}
			}
		}
	}
	return out
}

// uninstalledTransitional returns a transitional configuration out of reg
// that p never installed: one other processes installed if the history has
// it, else a fresh one.
func uninstalledTransitional(events []model.Event, p model.ProcessID, reg model.ConfigID) model.ConfigID {
	installed := func(c model.ConfigID) bool {
		return slices.ContainsFunc(events, func(f model.Event) bool {
			return f.Type == model.EventDeliverConf && f.Proc == p && f.Config == c
		})
	}
	for _, e := range events {
		if e.Type == model.EventDeliverConf && e.Config.IsTransitional() && e.Config.Prev() == reg && !installed(e.Config) {
			return e.Config
		}
	}
	return model.TransitionalID(model.RegularID(reg.Seq+1000, p), reg)
}

// TestChaosHistoriesMatchReference: on real protocol executions — clean
// and deliberately corrupted — the rewritten checker reports exactly the
// reference implementation's violations.
func TestChaosHistoriesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos differential comparison is slow")
	}
	for seed := int64(1); seed <= 4; seed++ {
		p := Generate(seed, GenConfig{
			Duration: 400 * time.Millisecond,
			Settle:   1500 * time.Millisecond,
		})
		events, res := Trace(p)
		if res.Events != len(events) {
			t.Fatalf("seed %d: Trace returned %d events but result counted %d", seed, len(events), res.Events)
		}
		for _, opts := range []spec.Options{{Settled: true}, {}} {
			compareCheckers(t, "clean", events, opts)
		}
		rng := rand.New(rand.NewSource(seed * 31))
		for trial := 0; trial < 5; trial++ {
			bad := mutate(rng, events)
			for _, opts := range []spec.Options{{Settled: true}, {}} {
				compareCheckers(t, "mutated", bad, opts)
			}
		}
	}
}

// TestLargeHarnessHistoryMatchesReference: one longer execution — agreed
// and safe traffic through a partition, a merge and a crash/recover —
// judged clean and mutated by both checkers.
func TestLargeHarnessHistoryMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos differential comparison is slow")
	}
	g := evs.NewGroup(evs.Options{NumProcesses: 5, Seed: 9})
	ids := g.IDs()
	for i := 0; i < 400; i++ {
		svc := model.Agreed
		if i%3 == 0 {
			svc = model.Safe
		}
		g.Send(time.Duration(100+3*i)*time.Millisecond, ids[i%len(ids)], []byte(fmt.Sprintf("m%d", i)), svc)
	}
	g.Partition(400*time.Millisecond, ids[:2], ids[2:])
	g.Merge(700 * time.Millisecond)
	g.Crash(900*time.Millisecond, ids[3])
	g.Recover(1100*time.Millisecond, ids[3])
	g.Run(3 * time.Second)
	events := g.History()
	if len(events) < 1800 {
		t.Fatalf("execution has only %d events", len(events))
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		label, h := "clean", events
		if trial > 0 {
			label, h = "mutated", mutate(rng, events)
		}
		for _, opts := range []spec.Options{{Settled: true}, {}} {
			compareCheckers(t, label, h, opts)
		}
	}
}
