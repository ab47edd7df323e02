package seqlog

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/model"
	"repro/internal/wire"
)

// TestLogMatchesMapModel drives a Log and a plain map through the same
// random puts, deletes, trims and restarts. The window slides far past the
// slot count, so slots wrap, and grows while wrapped, so re-slotting is
// exercised with a non-zero base.
func TestLogMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := Log{Limit: 500}
		ref := map[uint64]uint64{} // seq → Sum
		base, next := uint64(0), uint64(1)
		check := func(step int) {
			t.Helper()
			if l.Len() != len(ref) || l.Base() != base {
				t.Fatalf("seed %d step %d: Len=%d Base=%d, model %d/%d", seed, step, l.Len(), l.Base(), len(ref), base)
			}
			for seq := base; seq <= next+3; seq++ {
				e := l.Get(seq)
				sum, ok := ref[seq]
				if (e != nil) != ok || (ok && (e.Sum != sum || e.Seq != seq)) {
					t.Fatalf("seed %d step %d: Get(%d) = %+v, model %d,%v", seed, step, seq, e, sum, ok)
				}
				if ok && seq > l.High() {
					t.Fatalf("seed %d step %d: entry %d above High=%d", seed, step, seq, l.High())
				}
			}
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(20); {
			case op < 12: // put: mostly the next number, sometimes a leap, a duplicate or a stale one
				seq := next
				switch rng.Intn(8) {
				case 0:
					seq = next + uint64(rng.Intn(40))
				case 1:
					seq = base + uint64(rng.Intn(int(next-base)+1))
				}
				e, fresh := l.Put(seq)
				inWindow := seq > base && seq-base <= 500
				_, dup := ref[seq]
				if (e != nil) != inWindow || fresh != (inWindow && !dup) {
					t.Fatalf("seed %d step %d: Put(%d) = %v,%v with base %d, dup %v", seed, step, seq, e != nil, fresh, base, dup)
				}
				if e != nil {
					e.Seq, e.Sum = seq, uint64(step)
					ref[seq] = uint64(step)
					if seq >= next {
						next = seq + 1
					}
				}
			case op < 14:
				seq := base + uint64(rng.Intn(int(next-base)+2))
				_, ok := ref[seq]
				if got := l.Delete(seq); got != ok {
					t.Fatalf("seed %d step %d: Delete(%d) = %v, model %v", seed, step, seq, got, ok)
				}
				delete(ref, seq)
			case op < 19: // trim: below base (no-op), inside the window, or past everything
				upTo := base + uint64(rng.Intn(int(next-base)+1))
				switch rng.Intn(10) {
				case 0:
					upTo = base / 2
				case 1:
					upTo = next + uint64(rng.Intn(50))
				}
				l.DropPrefix(upTo)
				if upTo > base {
					base = upTo
					for seq := range ref {
						if seq <= base {
							delete(ref, seq)
						}
					}
					if next <= base {
						next = base + 1
					}
				}
			default:
				if rng.Intn(10) == 0 {
					base = uint64(rng.Intn(1000))
					next = base + 1
					l = Log{Limit: 500}
					l.DropPrefix(base)
					ref = map[uint64]uint64{}
				}
			}
			check(step)
		}
	}
}

func TestPutAtAndPastTheLimit(t *testing.T) {
	var l Log // Limit unset: MaxSpan
	l.DropPrefix(7)
	if e, fresh := l.Put(7 + MaxSpan); e == nil || !fresh {
		t.Fatal("a put at the bound must be stored")
	}
	if e, _ := l.Put(7 + MaxSpan + 1); e != nil {
		t.Fatal("a put past the bound must be refused")
	}
	if e, _ := l.Put(1 << 62); e != nil {
		t.Fatal("a far-off put must be refused")
	}
	if e, _ := l.Put(7); e != nil {
		t.Fatal("a put at the base must be refused")
	}
	if l.Len() != 1 || l.High() != 7+MaxSpan {
		t.Fatalf("Len=%d High=%d after refused puts", l.Len(), l.High())
	}
}

// TestEntryFitsSeventyTwoBytes pins the slot layout: the message
// without its ring, the user's integrity word and the presence bit fit
// 72 bytes on a 64-bit machine (a whole wire.Data alone is 160).
func TestEntryFitsSeventyTwoBytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned for 64-bit machines")
	}
	if got := unsafe.Sizeof(Entry{}); got > 72 {
		t.Fatalf("seqlog.Entry is %d bytes, want at most 72", got)
	}
}

// TestSetDataRoundTrip stores random messages in a slot and rebuilds them
// with their ring: every field the log keeps comes back, payloads nil,
// empty and long alike, at every service level. What the slot drops is
// what no log reads: the retransmission mark and the clock.
func TestSetDataRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		d := wire.Data{
			ID:      model.MessageID{Sender: model.ProcessID(fmt.Sprintf("p%d", rng.Intn(100))), SenderSeq: rng.Uint64()},
			Ring:    model.RegularID(rng.Uint64(), model.ProcessID(fmt.Sprintf("r%d", rng.Intn(9)))),
			Seq:     rng.Uint64(),
			Service: []model.Service{0, model.Agreed, model.Safe}[i%3],
			Retrans: rng.Intn(2) == 0,
		}
		switch rng.Intn(3) {
		case 0: // nil
		case 1:
			d.Payload = []byte{}
		default:
			d.Payload = make([]byte, 1+rng.Intn(100))
			rng.Read(d.Payload)
		}
		e := Entry{Sum: 99, Present: true}
		e.Set(&d)
		got := e.Data(d.Ring)
		want := d
		want.Retrans = false
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip of %+v gave %+v", want, got)
		}
		if e.Sum != 99 || !e.Present {
			t.Fatalf("Set touched the slot's own fields: Sum=%d Present=%v", e.Sum, e.Present)
		}
	}
}

// TestSetKeepsOutOfRangeServicesDistinct feeds Set the service levels only
// a corrupt frame decodes to: none may come back as Agreed or Safe, which
// would change how the ring delivers the message.
func TestSetKeepsOutOfRangeServicesDistinct(t *testing.T) {
	for _, svc := range []model.Service{-255, -254, -1, 255, 256, 257, 258, 1 << 40} {
		var e Entry
		e.Set(&wire.Data{Service: svc})
		if got := e.Service(); got == model.Agreed || got == model.Safe {
			t.Fatalf("service %d stored as %v", svc, got)
		}
	}
}
