package experiments

import (
	"runtime"
	"testing"
	"time"

	evs "repro"
	"repro/internal/node"
)

// orderingAllocBudget is the pinned per-delivery allocation budget for
// the loaded 16-process steady state. The measured value after the
// arena/pool work is ~0.02 allocs per delivery (amortised chunk refills
// and packet headers); the seed implementation paid ~18. The budget sits
// an order of magnitude above the measured value so host jitter cannot
// flake it, and two orders below the seed so any per-message allocation
// sneaking back into the submit→order→deliver path (one alloc/msg ⇒
// ~1.0 here) trips the gate immediately.
const orderingAllocBudget = 0.25

// TestOrderingAllocBudget16 is the dynamic half of the zero-alloc
// enforcement pair (the "Ordering alloc gate (16 procs)" CI step): the
// //evs:noalloc analyzer run by the "Invariant lint" step proves the
// annotated functions avoid allocating construct classes, and this gate
// measures the end-to-end truth the analyzer cannot see. A failure here
// with a clean lint means an unannotated function on the hot path
// regressed — profile with -sample_index=alloc_objects, fix, and extend
// the //evs:noalloc coverage to it.
func TestOrderingAllocBudget16(t *testing.T) {
	if testing.Short() {
		t.Skip("loaded steady-state measurement")
	}
	const size = 16
	window := 300 * time.Millisecond
	// Anchored at steady state: ring formation (a one-time join storm that
	// grows with group size) is not charged to the per-delivery costs.
	var m0, m1 runtime.MemStats
	deliveries := throughputRun(size, 1, window, func() {
		runtime.GC()
		runtime.ReadMemStats(&m0)
	})
	runtime.ReadMemStats(&m1)
	if deliveries/size == 0 {
		t.Fatal("no deliveries in measurement window")
	}
	allocs := float64(m1.Mallocs-m0.Mallocs) / float64(deliveries)
	t.Logf("16 procs: %.0f msgs/s (virtual-time offered load), %.3f allocs/delivery (budget %.2f), %.0f B/delivery",
		float64(deliveries/size)/window.Seconds(), allocs, orderingAllocBudget,
		float64(m1.TotalAlloc-m0.TotalAlloc)/float64(deliveries))
	if allocs > orderingAllocBudget {
		t.Errorf("allocs per delivery %.3f exceeds pinned budget %.2f", allocs, orderingAllocBudget)
	}
}

// benchNodeConfig is the protocol configuration the loaded scenarios run
// under: the adaptive flow-control ceiling and the send backlog are raised
// so the ring reaches its ordering capacity instead of the interactive
// defaults' shallow limits. Every other parameter is the default.
func benchNodeConfig() *node.Config {
	cfg := node.DefaultConfig()
	cfg.Totem.AdaptiveMax = 256
	cfg.MaxPending = 8192
	return &cfg
}

// aggregateOffered is the fixed aggregate offered load of the loaded
// scenarios: messages per 5ms refill tick, split evenly across the group
// (≈1.2M msgs/s of virtual time in total, far past what the ring orders).
const aggregateOffered = 6000

// throughputRun saturates a size-process group in discard mode (no
// retained histories) with Safe 64 B messages for window of virtual time
// and returns the delivery events (ordered message × member) in it — the
// load benchmark/'s sim8_sat_64B measures on the wall clock. onSteady (if
// non-nil) fires once the group has booted and warmed, immediately before
// the loaded window.
func throughputRun(size int, seed int64, window time.Duration, onSteady func()) int {
	g := evs.NewGroup(evs.Options{
		NumProcesses:   size,
		Seed:           seed,
		Node:           benchNodeConfig(),
		DiscardHistory: true,
	})
	ids := g.IDs()
	warm := 300 * time.Millisecond
	g.Run(warm)
	if onSteady != nil {
		onSteady()
	}
	// Refill the send backlogs every 5ms, splitting the aggregate load
	// evenly across members. Submissions beyond a node's MaxPending bound
	// are shed by backpressure (counted, not queued), so the backlog —
	// and the scheduler's event queue — stay bounded however far offered
	// load exceeds ring capacity.
	payload := make([]byte, 64)
	per := (aggregateOffered + size - 1) / size
	var refill func()
	refill = func() {
		if g.Now() >= warm+window {
			return
		}
		for _, id := range ids {
			for k := 0; k < per; k++ {
				_ = g.Submit(id, payload, evs.Safe)
			}
		}
		g.At(g.Now()+5*time.Millisecond, refill)
	}
	g.At(warm, refill)

	start := countDeliveries(g, ids)
	g.Run(warm + window)
	return countDeliveries(g, ids) - start
}

func countDeliveries(g *evs.Group, ids []evs.ProcessID) int {
	n := 0
	for _, id := range ids {
		n += int(g.DeliveryCount(id))
	}
	return n
}
