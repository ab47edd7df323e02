package node_test

import (
	"testing"
	"time"

	evs "repro"
	"repro/internal/obs"
)

// TestTokenGapHistogram runs a 3-member ring on the virtual clock over a
// medium with a fixed 1 ms hop: every token visit is followed by the next
// one at the same process 3 ms later. Each process records one gap per
// accepted visit after its ring's first, every one in the 2-4 ms bucket.
func TestTokenGapHistogram(t *testing.T) {
	g := evs.NewGroup(evs.Options{NumProcesses: 3, Seed: 1, MinDelay: time.Millisecond, MaxDelay: time.Millisecond})
	g.Run(500 * time.Millisecond)
	bucket := 12 // 3000 us: 2^11 <= v < 2^12
	for _, id := range g.IDs() {
		if cs := g.Configs(id); len(cs) != 1 || cs[0].Members.Size() != 3 {
			t.Fatalf("%s installed %v, want the one 3-member ring", id, cs)
		}
		s := g.Metrics().Procs[string(id)]
		visits := s.Counters[obs.CounterName(obs.CTokenRotations)]
		h := s.Histograms[obs.HistName(obs.HTokenGapUs)]
		if visits < 100 || h.Count != visits-1 {
			t.Fatalf("%s: %d gaps over %d visits, want one per visit after the first", id, h.Count, visits)
		}
		if h.Buckets[bucket] != h.Count || h.Sum != 3000*h.Count {
			t.Fatalf("%s: gap buckets %v (sum %d), want all %d at 3000 us in bucket %d", id, h.Buckets, h.Sum, h.Count, bucket)
		}
	}
}
