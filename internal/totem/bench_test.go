package totem

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/wire"
)

// benchRing drives a ring of n members synchronously (no network) with
// saturated senders and returns messages delivered per token rotation —
// the flow-control ablation DESIGN.md calls out: delivery rate is bounded
// by MaxPerToken × members per rotation, and the window caps outstanding
// unacknowledged messages.
func benchRing(b *testing.B, n int, opts Options) {
	ids := make([]model.ProcessID, n)
	for i := range ids {
		ids[i] = model.ProcessID(fmt.Sprintf("p%02d", i))
	}
	cfg := model.Configuration{ID: model.RegularID(1, ids[0]), Members: model.NewProcessSet(ids...)}
	rings := make([]*Ring, n)
	for i, id := range ids {
		rings[i] = New(id, cfg, opts)
	}
	tok := rings[0].InitialToken()
	seq := uint64(0)
	delivered := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rings[i%n]
		// Keep the queue saturated.
		for r.PendingCount() < opts.MaxPerToken {
			seq++
			r.Submit(Pending{ID: model.MessageID{Sender: r.self, SenderSeq: seq}, Service: model.Safe})
		}
		res := r.OnToken(tok)
		if !res.Accepted {
			b.Fatal("token rejected")
		}
		for _, d := range res.Broadcasts {
			for j, other := range rings {
				if j != i%n {
					other.OnData(d)
				}
			}
		}
		delivered += len(res.Deliveries)
		tok = res.Forward
	}
	b.StopTimer()
	if b.N > n {
		b.ReportMetric(float64(delivered)/(float64(b.N)/float64(n)), "msgs/rotation")
	}
}

func BenchmarkRingSaturated(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			benchRing(b, n, DefaultOptions())
		})
	}
}

// BenchmarkRingAblationMaxPerToken shows the batching knob: msgs/rotation
// scales with MaxPerToken until the window binds.
func BenchmarkRingAblationMaxPerToken(b *testing.B) {
	for _, mpt := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("maxPerToken=%d", mpt), func(b *testing.B) {
			benchRing(b, 4, Options{MaxPerToken: mpt, Window: 1024})
		})
	}
}

// BenchmarkRingAblationWindow shows the flow-control window: a small
// window throttles sequencing regardless of batching.
func BenchmarkRingAblationWindow(b *testing.B) {
	for _, w := range []uint64{8, 64, 512} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			benchRing(b, 4, Options{MaxPerToken: 64, Window: w})
		})
	}
}

// BenchmarkOnData measures the per-message ingest cost.
func BenchmarkOnData(b *testing.B) {
	cfg := model.Configuration{ID: model.RegularID(1, "p"), Members: model.NewProcessSet("p", "q")}
	r := New("p", cfg, DefaultOptions())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.OnData(wire.Data{
			ID:      model.MessageID{Sender: "q", SenderSeq: uint64(i + 1)},
			Ring:    cfg.ID,
			Seq:     uint64(i + 1),
			Service: model.Agreed,
		})
	}
}

// TestSendQueueReusesItsArray pins the send queue at a standing backlog:
// every cycle submits exactly what one token visit sequenced, so the
// queue neither drains nor grows. Popping from the front must not make
// Submit reallocate and copy the backlog as the queue moves through
// memory; over 10,000 cycles the ring may allocate only a handful of
// times in all.
func TestSendQueueReusesItsArray(t *testing.T) {
	cfg := model.Configuration{ID: model.RegularID(1, "p"), Members: model.NewProcessSet("p")}
	r := New("p", cfg, DefaultOptions())
	seq := uint64(0)
	submit := func() {
		seq++
		r.Submit(Pending{ID: model.MessageID{Sender: "p", SenderSeq: seq}, Service: model.Agreed})
	}
	const backlog = 1000
	for i := 0; i < backlog; i++ {
		submit()
	}
	tok := r.InitialToken()
	cycle := func() {
		res := r.OnToken(tok)
		if !res.Accepted || len(res.Sent) == 0 {
			t.Fatalf("visit sequenced nothing (accepted %v)", res.Accepted)
		}
		for range res.Sent {
			submit()
		}
		tok = res.Forward
	}
	for i := 0; i < 1000; i++ {
		cycle() // warm up: scratch buffers, the adaptive budget, log slots
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const cycles = 10_000
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if got := r.PendingCount(); got != backlog {
		t.Fatalf("backlog = %d, want the standing %d", got, backlog)
	}
	if n := after.Mallocs - before.Mallocs; n > 8 {
		t.Fatalf("%d allocations over %d submit/visit cycles at a standing backlog of %d, want at most 8", n, cycles, backlog)
	}
}
