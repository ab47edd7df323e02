package evs

import (
	"reflect"
	"testing"
	"time"
)

// runCodecScenario drives one seeded simulation with traffic, a
// partition and a merge, returning the group for inspection.
func runCodecScenario(t *testing.T, opts Options, horizon time.Duration) *Group {
	t.Helper()
	opts.NumProcesses = 4
	g := NewGroup(opts)
	ids := g.IDs()
	for i := 0; i < 10; i++ {
		id := ids[i%len(ids)]
		svc := Agreed
		if i%3 == 0 {
			svc = Safe
		}
		g.Send(time.Duration(100+i*40)*time.Millisecond, id, []byte{byte(i)}, svc)
	}
	g.Partition(600*time.Millisecond, ids[:2], ids[2:])
	g.Send(800*time.Millisecond, ids[0], []byte("left"), Agreed)
	g.Send(800*time.Millisecond, ids[2], []byte("right"), Agreed)
	g.Merge(1100 * time.Millisecond)
	g.Send(1600*time.Millisecond, ids[3], []byte("merged"), Safe)
	g.Run(horizon)
	return g
}

// TestCodecModeIsTransparent: with no transit faults, routing every
// packet through the wire codec must reproduce the struct-handoff
// execution bit for bit — same histories, same deliveries — because
// encode/decode consume no randomness and lose no information. This is
// the differential certification of the encoded path.
func TestCodecModeIsTransparent(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		plain := runCodecScenario(t, Options{Seed: seed}, 3*time.Second)
		coded := runCodecScenario(t, Options{Seed: seed, Codec: true}, 3*time.Second)

		if !reflect.DeepEqual(plain.History(), coded.History()) {
			t.Fatalf("seed %d: codec mode changed the formal-model history", seed)
		}
		for _, id := range plain.IDs() {
			pd, cd := plain.Deliveries(id), coded.Deliveries(id)
			if len(pd) != len(cd) {
				t.Fatalf("seed %d %s: %d vs %d deliveries", seed, id, len(pd), len(cd))
			}
			for i := range pd {
				if pd[i].Msg != cd[i].Msg || string(pd[i].Payload) != string(cd[i].Payload) ||
					pd[i].Time != cd[i].Time {
					t.Fatalf("seed %d %s delivery %d: %+v vs %+v", seed, id, i, pd[i], cd[i])
				}
			}
		}
		st := coded.Network().Stats()
		if st.DecodeErrors != 0 || st.Corrupted != 0 || st.Truncated != 0 {
			t.Fatalf("seed %d: faults with zero rates: %+v", seed, st)
		}
	}
}

// TestCodecChaosCorruptionSurvives: corrupting and truncating encoded
// frames in transit must be indistinguishable from packet loss — decode
// errors are counted, the frames are dropped, the protocol's recovery
// machinery keeps the execution alive, the specifications still hold,
// and nothing panics.
func TestCodecChaosCorruptionSurvives(t *testing.T) {
	for _, seed := range []int64{3, 11, 29} {
		g := runCodecScenario(t, Options{
			Seed:         seed,
			Codec:        true,
			CorruptRate:  0.04,
			TruncateRate: 0.02,
			DropRate:     0.01,
		}, 8*time.Second) // longer horizon: retransmission needs time to win
		st := g.Network().Stats()
		if st.Corrupted == 0 && st.Truncated == 0 {
			t.Fatalf("seed %d: chaos rates produced no transit faults (%+v)", seed, st)
		}
		// Almost every fault must surface as a counted decode error (a
		// bit flip can land in payload bytes and still decode; it must
		// never panic or derail the run).
		if st.DecodeErrors == 0 {
			t.Fatalf("seed %d: %d corrupt + %d truncated frames but no decode errors",
				seed, st.Corrupted, st.Truncated)
		}
		if vs := g.Check(true); len(vs) > 0 {
			t.Fatalf("seed %d: spec violations under codec chaos: %v", seed, vs)
		}
		// Traffic still flowed.
		for _, id := range g.IDs() {
			if len(g.Deliveries(id)) == 0 {
				t.Fatalf("seed %d: %s delivered nothing", seed, id)
			}
		}
	}
}

// TestCodecChaosHeavyNeverPanics cranks the fault rates far past
// plausibility: the run may make little progress, but it must neither
// panic nor violate safety.
func TestCodecChaosHeavyNeverPanics(t *testing.T) {
	g := NewGroup(Options{
		NumProcesses: 3,
		Seed:         5,
		Codec:        true,
		CorruptRate:  0.35,
		TruncateRate: 0.25,
	})
	ids := g.IDs()
	for i := 0; i < 6; i++ {
		g.Send(time.Duration(150+i*100)*time.Millisecond, ids[i%3], []byte{byte(i)}, Agreed)
	}
	g.Run(4 * time.Second)
	if st := g.Network().Stats(); st.DecodeErrors == 0 {
		t.Fatalf("no decode errors at extreme fault rates: %+v", st)
	}
	if vs := g.Check(false); len(vs) > 0 {
		t.Fatalf("safety violated under extreme codec chaos: %v", vs)
	}
}
