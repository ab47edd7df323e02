package stable

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/wire"
)

// putBatch is how many messages one PutLogBatch carries, and putRetain how
// many batches the trimming SetScalars keeps behind the write head: the
// shape benchmark/rigs.go measures. The node takes the same put path once
// per entry of its in-memory log, at a crash (SaveLog).
const (
	putBatch  = 64
	putRetain = 8
)

// putLoad is one reusable batch of size-byte messages from a four-member
// ring, renumbered before every write.
type putLoad struct {
	msgs []wire.Data
	next uint64
}

func newPutLoad(size int) *putLoad {
	ids := []model.ProcessID{"p01", "p02", "p03", "p04"}
	l := &putLoad{msgs: make([]wire.Data, putBatch), next: 1}
	for i := range l.msgs {
		payload := make([]byte, size)
		for k := range payload {
			payload[k] = byte(i + 7*k)
		}
		l.msgs[i] = wire.Data{
			ID:      model.MessageID{Sender: ids[i%len(ids)]},
			Ring:    model.RegularID(3, ids[0]),
			Service: model.Agreed,
			Payload: payload,
		}
	}
	return l
}

// write persists the next batch and trims behind it.
func (l *putLoad) write(s *Store) {
	for i := range l.msgs {
		l.msgs[i].Seq = l.next
		l.msgs[i].ID.SenderSeq = l.next
		l.next++
	}
	s.PutLogBatch(l.msgs)
	if l.next > putRetain*putBatch {
		s.SetScalars(Record{TrimmedUpTo: l.next - putRetain*putBatch})
	}
}

// allocsOf counts the heap allocations f makes and their bytes, on one P
// so another goroutine's allocations are not charged to it.
func allocsOf(f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// BenchmarkStorePutLogBatch is the per-message persistence cost: ns/msg
// and allocs/msg over 64-message batches with the trim behind them.
func BenchmarkStorePutLogBatch(b *testing.B) {
	for _, size := range []int{64, 1024} {
		name := fmt.Sprintf("%dB", size)
		if size == 1024 {
			name = "1KB"
		}
		b.Run(name, func(b *testing.B) {
			var s Store
			l := newPutLoad(size)
			for i := 0; i < 4*putRetain; i++ {
				l.write(&s)
			}
			b.ResetTimer()
			mallocs, _ := allocsOf(func() {
				for i := 0; i < b.N; i++ {
					l.write(&s)
				}
			})
			b.StopTimer()
			msgs := float64(b.N) * putBatch
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
			b.ReportMetric(float64(mallocs)/msgs, "allocs/msg")
		})
	}
}

// TestStorePutAllocGate is the dynamic half of the store's zero-alloc
// contract (CI step "Stable store alloc gate"; the static half is
// //evs:noalloc on PutLogBatch/SetScalars/putOne and on the shared log's
// Put/Get/DropPrefix). In steady state a put allocates nothing of
// its own: the log's slots are reused as the window slides, and the only
// allocations left are arena chunk refills — one per arenaChunk bytes of
// payload — so the count per put is
// zero however the average is rounded, and a per-message allocation
// sneaking back in (1.0 per put) fails by two orders of magnitude.
func TestStorePutAllocGate(t *testing.T) {
	for _, size := range []int{64, 1024} {
		var s Store
		l := newPutLoad(size)
		for i := 0; i < 4*putRetain; i++ {
			l.write(&s)
		}
		const batches = 1024
		got, _ := allocsOf(func() {
			for i := 0; i < batches; i++ {
				l.write(&s)
			}
		})
		puts := float64(batches * putBatch)
		// Chunk refills for the bytes carved, with a quarter spare for the
		// partial chunks a too-large carve abandons and the measurement's
		// own few allocations.
		refills := 1.25*puts*float64(size)/arenaChunk + 8
		t.Logf("%d B: %d allocations over %.0f puts (%.4f per put; budget %.0f arena chunk refills)", size, got, puts, float64(got)/puts, refills)
		if float64(got) > refills {
			t.Errorf("%d B: %d allocations over %.0f puts, want at most the %.0f arena chunk refills", size, got, puts, refills)
		}
		if perPut := testing.AllocsPerRun(1000, func() {
			l.msgs[0].Seq = l.next
			l.next++
			s.PutLogBatch(l.msgs[:1])
		}); perPut != 0 {
			t.Errorf("%d B: %v allocations per put, want 0", size, perPut)
		}
	}
}
