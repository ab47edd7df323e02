package node

import (
	"testing"

	"repro/internal/model"
	"repro/internal/wire"
)

// crashPoint names one kind of event after which a process is crashed,
// and recognises it: hit is asked after every delivery to "a", with a's
// mode and receive-log length from just before the delivery. A nil hit
// crashes a right after its own Submit.
type crashPoint struct {
	name string
	hit  func(from model.ProcessID, msg wire.Message, mode Mode, logLen int, a *Node) bool
}

// logLen is the operational ring's receive-log length (0 off a ring).
func logLen(n *Node) int {
	if n.ring == nil {
		return 0
	}
	return n.ring.Len()
}

var crashPoints = []crashPoint{
	{"submit", nil},
	{"fresh batch", func(from model.ProcessID, msg wire.Message, mode Mode, before int, a *Node) bool {
		_, ok := msg.(wire.DataBatch)
		return ok && from != a.ID() && mode == Operational && logLen(a) > before
	}},
	{"duplicate-only batch", func(from model.ProcessID, msg wire.Message, mode Mode, before int, a *Node) bool {
		_, ok := msg.(wire.DataBatch)
		return ok && mode == Operational && a.Mode() == Operational && logLen(a) == before
	}},
	{"token visit", func(from model.ProcessID, msg wire.Message, mode Mode, _ int, a *Node) bool {
		_, ok := msg.(wire.Token)
		return ok && from != a.ID() && mode == Operational && a.Mode() == Operational
	}},
	{"recovery step", func(_ model.ProcessID, msg wire.Message, mode Mode, _ int, a *Node) bool {
		_, ok := msg.(wire.Exchange)
		return ok && mode == Recovering && a.Mode() == Recovering
	}},
	{"install", func(_ model.ProcessID, _ wire.Message, mode Mode, _ int, a *Node) bool {
		return mode == Recovering && a.Mode() == Operational
	}},
}

// TestCrashAfterEachEventKeepsIdentifiersAndEvidence crashes a process
// right after each kind of event that persists state — its own Submit, a
// batch with fresh messages, a batch of duplicates only, a token visit, a
// recovery step, an installation — and recovers it. Persistence is
// narrower than one whole-record write per event (Submit writes only its
// counter, observations are raised in the store in place), so the test
// checks that nothing it needs was left volatile:
//   - the reloaded SenderSeq and SeenSeqs are at least what a whole-record
//     write at the crash would have left: the identifiers the process
//     minted and every sender counter it was handed in a data message;
//   - the reloaded watermarks are at least those the process held;
//   - the first Submit after recovery mints an identifier above every one
//     minted before the crash.
func TestCrashAfterEachEventKeepsIdentifiersAndEvidence(t *testing.T) {
	for _, cp := range crashPoints {
		t.Run(cp.name, func(t *testing.T) {
			w := newPairWorld(t, "a", "b")
			w.startAll()
			a, store := w.nodes["a"], w.nodes["a"].store
			// observed is the whole-record oracle for SeenSeqs: the highest
			// sender counter of every originator a was handed a data
			// message from, and of its own submissions.
			observed := map[model.ProcessID]uint64{}
			note := func(id model.MessageID) { observed[id.Sender] = max(observed[id.Sender], id.SenderSeq) }
			submit := func(id model.ProcessID, k int) {
				for i := 0; i < k; i++ {
					if err := w.nodes[id].Submit([]byte{byte(i)}, model.Agreed); err != nil {
						t.Fatalf("%s: Submit: %v", id, err)
					}
					if id == "a" {
						note(model.MessageID{Sender: "a", SenderSeq: a.senderSeq})
					}
				}
			}
			mode, before := a.Mode(), logLen(a)
			stop := func(from, to model.ProcessID, msg wire.Message) bool {
				if to != "a" {
					return false
				}
				switch m := msg.(type) {
				case wire.Data:
					note(m.ID)
				case wire.DataBatch:
					for _, d := range m.Msgs {
						note(d.ID)
					}
				}
				hit := cp.hit != nil && cp.hit(from, msg, mode, before, a)
				mode, before = a.Mode(), logLen(a)
				return hit
			}

			// Traffic on the pair ring (batches both ways), then a
			// reconfiguration of the same two processes.
			stopped := false
			for round := 0; round < 4 && !stopped; round++ {
				submit("b", 3)
				submit("a", 3)
				if cp.hit == nil && round == 2 {
					stopped = true
					break
				}
				for i := 0; i < 4 && !stopped; i++ {
					stopped = w.pumpUntil(stop)
				}
			}
			if !stopped {
				w.nodes["a"].OnTimer(TimerTokenLoss)
				w.nodes["b"].OnTimer(TimerTokenLoss)
				for i := 0; i < 8 && !stopped; i++ {
					stopped = w.pumpUntil(stop)
					for _, id := range w.ids {
						if _, ok := w.envs[id].timers[TimerJoin]; ok && !stopped {
							w.nodes[id].OnTimer(TimerJoin)
						}
					}
				}
			}
			if !stopped {
				t.Fatalf("the scenario never produced a %s at a", cp.name)
			}

			held := a.scalars()
			minted := a.senderSeq
			if minted == 0 {
				t.Fatal("a minted no identifier before the crash")
			}
			a.Crash()
			rec := store.Load()
			if rec.SenderSeq < minted {
				t.Fatalf("reloaded SenderSeq %d below the %d identifiers minted", rec.SenderSeq, minted)
			}
			for p, v := range observed {
				if rec.SeenSeqs[p] < v {
					t.Fatalf("reloaded SeenSeqs[%s] = %d, below the observed %d (record %v)", p, rec.SeenSeqs[p], v, rec.SeenSeqs)
				}
			}
			for _, f := range []struct {
				name      string
				got, want uint64
			}{
				{"DeliveredUpTo", rec.DeliveredUpTo, held.DeliveredUpTo},
				{"SafeBound", rec.SafeBound, held.SafeBound},
				{"HighestSeen", rec.HighestSeen, held.HighestSeen},
				{"TrimmedUpTo", rec.TrimmedUpTo, held.TrimmedUpTo},
				{"MaxRingSeq", rec.MaxRingSeq, held.MaxRingSeq},
			} {
				if f.got < f.want {
					t.Fatalf("reloaded %s %d below the held %d", f.name, f.got, f.want)
				}
			}

			a.Recover()
			if err := a.Submit([]byte("after"), model.Agreed); err != nil {
				t.Fatal(err)
			}
			if a.senderSeq <= minted || store.SenderSeq() != a.senderSeq {
				t.Fatalf("first identifier after recovery is %d (persisted %d), want above the %d minted before", a.senderSeq, store.SenderSeq(), minted)
			}
		})
	}
}
