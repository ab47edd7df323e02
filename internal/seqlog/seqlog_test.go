package seqlog

import (
	"math/rand"
	"testing"
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
				if (e != nil) != ok || (ok && (e.Sum != sum || e.Data.Seq != seq)) {
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
					e.Data.Seq, e.Sum = seq, uint64(step)
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
