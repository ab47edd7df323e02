package totem

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/wire"
)

// The gap list is the load-bearing data structure of the flattened data
// path: it backs the receipt watermark (advanceAru), the range-coded
// retransmission requests on the token (OnToken's Rtr copy) and the
// exchange's receipt claims (Snapshot). These tests fuzz the three
// mutators — store, noteAssigned, fillGap — against a trivial set-based
// reference model and check the representation invariants the wire format
// relies on after every step.

// gapRef is the reference model: the set of present sequence numbers and
// the highest number known assigned. Everything the gap list encodes is
// derivable from these two.
type gapRef struct {
	present map[uint64]bool
	high    uint64
	trimmed uint64
}

func (m *gapRef) missing() []uint64 {
	var out []uint64
	for s := m.trimmed + 1; s <= m.high; s++ {
		if !m.present[s] {
			out = append(out, s)
		}
	}
	return out
}

func (m *gapRef) aru() uint64 {
	for s := m.trimmed + 1; s <= m.high; s++ {
		if !m.present[s] {
			return s - 1
		}
	}
	return m.high
}

func propRing() *Ring {
	ids := []model.ProcessID{"p1", "p2", "p3"}
	cfg := model.Configuration{ID: model.RegularID(1, ids[0]), Members: model.NewProcessSet(ids...)}
	return New(ids[0], cfg, DefaultOptions())
}

// put stores d in r's log as a receipt does, reporting whether it was new.
func put(r *Ring, d wire.Data) bool { return r.put(&d) }

func propData(seq uint64) wire.Data {
	return wire.Data{
		ID:      model.MessageID{Sender: "p1", SenderSeq: seq},
		Ring:    model.RegularID(1, "p1"),
		Seq:     seq,
		Service: model.Agreed,
		Payload: []byte{byte(seq)},
	}
}

// checkGapInvariants verifies the representation invariants of the gap
// list against the reference model:
//
//  1. ranges are non-empty, sorted and disjoint (with a filled number
//     between adjacent ranges, so no two ranges can be coalesced)
//  2. the union of the ranges is exactly the set of missing numbers in
//     (trimmedUpTo, highestSeen]
//  3. myAru is the number just below the first gap (highestSeen when
//     there is none) — the contiguous receipt watermark
//  4. present() agrees with the reference set
func checkGapInvariants(t *testing.T, r *Ring, ref *gapRef, step int) {
	t.Helper()
	for i, g := range r.gaps {
		if g.lo > g.hi {
			t.Fatalf("step %d: gap %d empty: [%d,%d]", step, i, g.lo, g.hi)
		}
		if g.lo <= r.trimmedUpTo {
			t.Fatalf("step %d: gap %d [%d,%d] reaches into trimmed prefix (trimmed=%d)", step, i, g.lo, g.hi, r.trimmedUpTo)
		}
		if i > 0 && r.gaps[i-1].hi+1 >= g.lo {
			t.Fatalf("step %d: gaps %d,%d not sorted/disjoint: [%d,%d] then [%d,%d]",
				step, i-1, i, r.gaps[i-1].lo, r.gaps[i-1].hi, g.lo, g.hi)
		}
	}
	if r.highestSeen != ref.high {
		t.Fatalf("step %d: highestSeen=%d want %d", step, r.highestSeen, ref.high)
	}
	var inGaps []uint64
	for _, g := range r.gaps {
		for s := g.lo; s <= g.hi; s++ {
			inGaps = append(inGaps, s)
		}
	}
	missing := ref.missing()
	if len(inGaps) != len(missing) {
		t.Fatalf("step %d: gap list covers %d numbers %v, reference misses %d %v",
			step, len(inGaps), inGaps, len(missing), missing)
	}
	for i := range missing {
		if inGaps[i] != missing[i] {
			t.Fatalf("step %d: gap list %v != reference missing set %v", step, inGaps, missing)
		}
	}
	if want := ref.aru(); r.myAru != want {
		t.Fatalf("step %d: myAru=%d want %d (gaps %v)", step, r.myAru, want, r.gaps)
	}
	for s := ref.trimmed + 1; s <= ref.high+2; s++ {
		if got, want := r.present(s), ref.present[s]; got != want {
			t.Fatalf("step %d: present(%d)=%v want %v", step, s, got, want)
		}
	}
}

// TestGapListPropertyRandomOps fuzzes interleaved store and noteAssigned
// calls (store exercises fillGap internally for every out-of-order
// receipt) against the reference model.
func TestGapListPropertyRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := propRing()
		ref := &gapRef{present: map[uint64]bool{}}
		for step := 0; step < 2000; step++ {
			switch rng.Intn(10) {
			case 0:
				// Token observation: numbers up to h are assigned.
				h := ref.high + uint64(rng.Intn(8))
				r.noteAssigned(h)
				if h > ref.high {
					ref.high = h
				}
			default:
				// Receipt, biased toward the open window but free to
				// land on duplicates and to leap past highestSeen.
				seq := uint64(1)
				if w := ref.high + 6; w > 1 {
					seq = 1 + uint64(rng.Intn(int(w)))
				}
				fresh := put(r, propData(seq))
				if want := !ref.present[seq]; fresh != want {
					t.Fatalf("seed %d step %d: put(%d) fresh=%v want %v", seed, step, seq, fresh, want)
				}
				ref.present[seq] = true
				if seq > ref.high {
					ref.high = seq
				}
			}
			checkGapInvariants(t, r, ref, step)
		}
	}
}

// fillAndTrim feeds r the contiguous messages 1..n and two token visits
// acknowledging them, so n is delivered and safe and the trim path
// discards everything a retention cushion below it. It returns the
// trimmed prefix (zero when n is too short for a trim).
func fillAndTrim(r *Ring, n uint64) uint64 {
	for s := uint64(1); s <= n; s++ {
		r.OnData(propData(s))
	}
	for id := uint64(1); id <= 2; id++ {
		r.OnToken(wire.Token{Ring: r.cfg.ID, TokenID: id, Seq: n, Aru: n})
	}
	return r.Trimmed()
}

// TestHoleyLogProperty builds randomly holey logs above random trimmed
// prefixes the way a ring comes by them — receipts, a token announcing
// numbers never received, the trim path — and checks the gap list requests
// exactly the missing suffix numbers while the trimmed prefix is neither
// stored nor treated as missing.
func TestHoleyLogProperty(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := propRing()
		filled := uint64(0)
		if rng.Intn(2) == 0 {
			filled = 2*trimChunk + r.retainCushion() + uint64(rng.Intn(200))
		}
		trimmed := fillAndTrim(r, filled)
		if (filled == 0) != (trimmed == 0) || trimmed > filled {
			t.Fatalf("seed %d: %d contiguous receipts trimmed to %d", seed, filled, trimmed)
		}
		high := filled + uint64(1+rng.Intn(200))
		ref := &gapRef{present: map[uint64]bool{}, high: high, trimmed: trimmed}
		for s := trimmed + 1; s <= filled; s++ {
			ref.present[s] = true
		}
		for s := filled + 1; s <= high; s++ {
			if rng.Intn(3) > 0 {
				r.OnData(propData(s))
				ref.present[s] = true
			}
		}
		r.OnToken(wire.Token{Ring: r.cfg.ID, TokenID: 3, Seq: high, Aru: filled})
		checkGapInvariants(t, r, ref, int(seed))
		if r.deliveredUpTo < trimmed {
			t.Fatalf("seed %d: deliveredUpTo=%d below trimmed=%d", seed, r.deliveredUpTo, trimmed)
		}
	}
}

// TestTokenRtrRangeCodedRoundTrip drives the range-coded retransmission
// request through a full wire round trip: a ring that received a holey
// log must emit its missing set as sorted disjoint ranges on the
// forwarded token, a peer holding the full log must serve exactly the
// requested messages, and feeding those back must close every gap.
func TestTokenRtrRangeCodedRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		high := uint64(20 + rng.Intn(150))

		requester, peer := propRing(), propRing()
		missing := map[uint64]bool{}
		for s := uint64(1); s <= high; s++ {
			peer.OnData(propData(s))
			if rng.Intn(4) == 0 {
				missing[s] = true
			} else {
				requester.OnData(propData(s))
			}
		}

		res := requester.OnToken(wire.Token{Ring: requester.cfg.ID, TokenID: 1, Seq: high, Aru: requester.myAru})
		if !res.Accepted {
			t.Fatalf("seed %d: requester rejected token", seed)
		}
		fwd := res.Forward

		// The wire form is range-coded: sorted, disjoint, non-empty, and
		// its expansion is exactly the missing set.
		var requested []uint64
		for i, g := range fwd.Rtr {
			if g.Lo > g.Hi {
				t.Fatalf("seed %d: empty wire range [%d,%d]", seed, g.Lo, g.Hi)
			}
			if i > 0 && fwd.Rtr[i-1].Hi+1 >= g.Lo {
				t.Fatalf("seed %d: wire ranges not sorted/disjoint: %v", seed, fwd.Rtr)
			}
			for s := g.Lo; s <= g.Hi; s++ {
				requested = append(requested, s)
			}
		}
		if uint64(len(requested)) != fwd.RtrCount() {
			t.Fatalf("seed %d: RtrCount=%d but expansion has %d", seed, fwd.RtrCount(), len(requested))
		}
		if len(requested) != len(missing) {
			t.Fatalf("seed %d: requested %d seqs, missing %d", seed, len(requested), len(missing))
		}
		for _, s := range requested {
			if !missing[s] {
				t.Fatalf("seed %d: requested %d which is not missing", seed, s)
			}
		}

		// A peer with the full log serves exactly the requested messages.
		pres := peer.OnToken(fwd)
		if !pres.Accepted {
			t.Fatalf("seed %d: peer rejected forwarded token", seed)
		}
		served := map[uint64]bool{}
		for _, d := range pres.Broadcasts {
			if !d.Retrans {
				t.Fatalf("seed %d: served seq %d not marked Retrans", seed, d.Seq)
			}
			served[d.Seq] = true
		}
		if len(served) != len(missing) {
			t.Fatalf("seed %d: peer served %d seqs, requested %d", seed, len(served), len(missing))
		}

		// Closing the loop: the retransmissions fill every gap.
		for _, d := range pres.Broadcasts {
			requester.OnData(d)
		}
		if len(requester.gaps) != 0 || requester.myAru != high {
			t.Fatalf("seed %d: after retransmission gaps=%v myAru=%d want none/%d",
				seed, requester.gaps, requester.myAru, high)
		}
	}
}
