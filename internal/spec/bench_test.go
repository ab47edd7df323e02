package spec

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/model"
)

// syntheticHistory builds a conforming single-configuration history with
// msgs messages delivered by procs processes.
func syntheticHistory(procs, msgs int) []model.Event {
	ids := make([]model.ProcessID, procs)
	for i := range ids {
		ids[i] = model.ProcessID(fmt.Sprintf("p%02d", i))
	}
	members := model.NewProcessSet(ids...)
	cfg := model.RegularID(1, ids[0])
	var events []model.Event
	for _, id := range ids {
		events = append(events, model.Event{
			Type: model.EventDeliverConf, Proc: id, Config: cfg, Members: members,
		})
	}
	for m := 0; m < msgs; m++ {
		sender := ids[m%procs]
		msg := model.MessageID{Sender: sender, SenderSeq: uint64(m/procs + 1)}
		events = append(events, model.Event{
			Type: model.EventSend, Proc: sender, Config: cfg, Members: members,
			Msg: msg, Service: model.Safe,
		})
		for _, id := range ids {
			events = append(events, model.Event{
				Type: model.EventDeliver, Proc: id, Config: cfg, Members: members,
				Msg: msg, Service: model.Safe,
			})
		}
	}
	return events
}

// BenchmarkCheckAll measures full-model checking cost versus history size.
func BenchmarkCheckAll(b *testing.B) {
	for _, msgs := range []int{50, 200, 800} {
		msgs := msgs
		b.Run(fmt.Sprintf("msgs=%d", msgs), func(b *testing.B) {
			events := syntheticHistory(4, msgs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := NewChecker(events, Options{Settled: true})
				if vs := c.CheckAll(); len(vs) != 0 {
					b.Fatalf("synthetic history flagged: %v", vs)
				}
			}
			b.ReportMetric(float64(len(events)), "events")
		})
	}
}

// BenchmarkBuildOrd isolates the condensation/topological-sort cost.
func BenchmarkBuildOrd(b *testing.B) {
	events := syntheticHistory(4, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewChecker(events, Options{})
		if _, cyclic := c.BuildOrd(); cyclic {
			b.Fatal("unexpected cycle")
		}
	}
}

// churnHistory builds a conforming history that marches every process
// through cfgs regular configurations, with msgsPerCfg messages fully
// delivered inside each — a membership-churn workload exercising the
// configuration-sequence, zone and atomicity paths at scale.
func churnHistory(procs, cfgs, msgsPerCfg int) []model.Event {
	ids := make([]model.ProcessID, procs)
	for i := range ids {
		ids[i] = model.ProcessID(fmt.Sprintf("p%02d", i))
	}
	members := model.NewProcessSet(ids...)
	seqs := make(map[model.ProcessID]uint64)
	var events []model.Event
	for k := 0; k < cfgs; k++ {
		cfg := model.RegularID(uint64(k+1), ids[0])
		for _, id := range ids {
			events = append(events, model.Event{
				Type: model.EventDeliverConf, Proc: id, Config: cfg, Members: members,
			})
		}
		for m := 0; m < msgsPerCfg; m++ {
			sender := ids[m%procs]
			seqs[sender]++
			msg := model.MessageID{Sender: sender, SenderSeq: seqs[sender]}
			events = append(events, model.Event{
				Type: model.EventSend, Proc: sender, Config: cfg, Members: members,
				Msg: msg, Service: model.Agreed,
			})
			for _, id := range ids {
				events = append(events, model.Event{
					Type: model.EventDeliver, Proc: id, Config: cfg, Members: members,
					Msg: msg, Service: model.Agreed,
				})
			}
		}
	}
	return events
}

// benchScaling runs CheckAll over a prebuilt history, reporting ns/event
// and allocated bytes/event so the scaling trend (and the absence of an
// n² closure) is visible in the bench trajectory.
func benchScaling(b *testing.B, events []model.Event) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewChecker(events, Options{Settled: true})
		if vs := c.CheckAll(); len(vs) != 0 {
			b.Fatalf("synthetic history flagged: %v", vs)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(len(events))
	b.ReportMetric(n, "events")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n), "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/(float64(b.N)*n), "bytes/event")
}

// BenchmarkCheckerScaling is the headline scaling series: single
// configuration, history sizes up to >50k events.
func BenchmarkCheckerScaling(b *testing.B) {
	for _, msgs := range []int{200, 1000, 4000, 10000} {
		msgs := msgs
		b.Run(fmt.Sprintf("procs=4/msgs=%d", msgs), func(b *testing.B) {
			benchScaling(b, syntheticHistory(4, msgs))
		})
	}
}

// BenchmarkCheckerScalingChurn measures the same metrics on a
// configuration-churn workload (many small configurations instead of one
// big one).
func BenchmarkCheckerScalingChurn(b *testing.B) {
	for _, cfgs := range []int{10, 100} {
		cfgs := cfgs
		b.Run(fmt.Sprintf("procs=5/cfgs=%d/msgs=100", cfgs), func(b *testing.B) {
			benchScaling(b, churnHistory(5, cfgs, 100))
		})
	}
}

func TestChurnHistoryConforms(t *testing.T) {
	events := churnHistory(3, 4, 10)
	if vs := NewChecker(events, Options{Settled: true}).CheckAll(); len(vs) != 0 {
		t.Fatalf("churn history flagged: %v", vs)
	}
}

func TestSyntheticHistoryConforms(t *testing.T) {
	events := syntheticHistory(3, 30)
	if vs := NewChecker(events, Options{Settled: true}).CheckAll(); len(vs) != 0 {
		t.Fatalf("synthetic history flagged: %v", vs)
	}
}

// TestCheckerAllocBudget pins what NewChecker plus CheckAll allocate per
// event on the scaling histories: at most a third of the 1,021 and 711
// B/event the string-keyed index allocated, whose per-event map entries
// and second copy of every delivery the dense-id index removed.
func TestCheckerAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []model.Event
		budget float64 // bytes per event
	}{
		{"synthetic procs=4 msgs=4000", syntheticHistory(4, 4000), 1021.0 / 3},
		{"churn procs=5 cfgs=100 msgs=100", churnHistory(5, 100, 100), 711.0 / 3},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		vs := NewChecker(tc.events, Options{Settled: true}).CheckAll()
		runtime.ReadMemStats(&after)
		if len(vs) != 0 {
			t.Fatalf("%s: history flagged: %v", tc.name, vs)
		}
		got := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tc.events))
		t.Logf("%s: %.0f B/event (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: checker allocated %.0f B/event, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
