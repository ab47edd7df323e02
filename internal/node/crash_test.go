package node

import (
	"bytes"
	"testing"

	"repro/internal/model"
	"repro/internal/seqlog"
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

// driveToCrashPoint runs traffic on a pair ring (batches both ways), then
// a reconfiguration of the same two processes, until cp happens at "a",
// and returns a stopped right after it, not yet crashed. watch (when
// non-nil) is called after every delivery to a, before cp is asked.
func driveToCrashPoint(t *testing.T, cp crashPoint, watch func(a *Node, msg wire.Message)) *Node {
	t.Helper()
	w := newPairWorld(t, "a", "b")
	w.startAll()
	a := w.nodes["a"]
	submit := func(id model.ProcessID, k int) {
		for i := 0; i < k; i++ {
			if err := w.nodes[id].Submit([]byte{byte(i)}, model.Agreed); err != nil {
				t.Fatalf("%s: Submit: %v", id, err)
			}
		}
	}
	mode, before := a.Mode(), logLen(a)
	stop := func(from, to model.ProcessID, msg wire.Message) bool {
		if to != "a" {
			return false
		}
		if watch != nil {
			watch(a, msg)
		}
		hit := cp.hit != nil && cp.hit(from, msg, mode, before, a)
		mode, before = a.Mode(), logLen(a)
		return hit
	}
	for round := 0; round < 4; round++ {
		submit("b", 3)
		submit("a", 3)
		if cp.hit == nil && round == 2 {
			return a
		}
		for i := 0; i < 4; i++ {
			if w.pumpUntil(stop) {
				return a
			}
		}
	}
	w.nodes["a"].OnTimer(TimerTokenLoss)
	w.nodes["b"].OnTimer(TimerTokenLoss)
	for i := 0; i < 8; i++ {
		if w.pumpUntil(stop) {
			return a
		}
		for _, id := range w.ids {
			if _, ok := w.envs[id].timers[TimerJoin]; ok {
				w.nodes[id].OnTimer(TimerJoin)
			}
		}
	}
	t.Fatalf("the scenario never produced a %s at a", cp.name)
	return nil
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
			// observed is the whole-record oracle for SeenSeqs: the highest
			// sender counter of every originator a was handed a data
			// message from, and of its own submissions.
			observed := map[model.ProcessID]uint64{}
			note := func(id model.MessageID) { observed[id.Sender] = max(observed[id.Sender], id.SenderSeq) }
			a := driveToCrashPoint(t, cp, func(_ *Node, msg wire.Message) {
				switch m := msg.(type) {
				case wire.Data:
					note(m.ID)
				case wire.DataBatch:
					for _, d := range m.Msgs {
						note(d.ID)
					}
				}
			})
			store := a.store
			held := a.scalars()
			minted := a.senderSeq
			if minted == 0 {
				t.Fatal("a minted no identifier before the crash")
			}
			note(model.MessageID{Sender: "a", SenderSeq: minted})
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

// heldEntry is one entry of an in-memory log, payload copied.
type heldEntry struct {
	id      model.MessageID
	service model.Service
	payload []byte
}

// snapshot copies a log's entries by sequence number.
func snapshot(l *seqlog.Log) map[uint64]heldEntry {
	out := map[uint64]heldEntry{}
	for seq := l.Base() + 1; seq <= l.High(); seq++ {
		if e := l.Get(seq); e != nil {
			out[seq] = heldEntry{e.ID, e.Service(), bytes.Clone(e.Payload)}
		}
	}
	return out
}

// TestCrashStoresTheHeldLog crashes a process after each kind of event and
// checks that the log written at the crash is the log the process held
// (empty right after an installation): LoadChecked returns the same base
// and, for every sequence number, the same identifier, service and payload
// bytes. A torn write at that crash
// destroys exactly the entry the last log-extending event stored — the
// highest one it added, tracked here from the held log after every
// delivery — when that entry is above SafeBound, and nothing otherwise.
func TestCrashStoresTheHeldLog(t *testing.T) {
	for _, cp := range crashPoints {
		t.Run(cp.name, func(t *testing.T) {
			var prev map[uint64]heldEntry
			var lastStored uint64
			a := driveToCrashPoint(t, cp, func(a *Node, _ wire.Message) {
				now := snapshot(a.heldLog())
				var top uint64
				for seq, e := range now {
					if p, ok := prev[seq]; !ok || p.id != e.id {
						top = max(top, seq)
					}
				}
				if top > 0 {
					lastStored = top
				}
				prev = now
			})
			held := a.heldLog()
			base, want := held.Base(), snapshot(held)
			if len(want) == 0 && cp.name != "install" {
				t.Fatal("a held no log entry at the crash")
			}
			safe := a.scalars().SafeBound
			a.Crash()

			_, got, errs := a.store.LoadChecked()
			if len(errs) != 0 || got.Base() != base {
				t.Fatalf("LoadChecked: base %d, errors %v; want the held base %d and no errors", got.Base(), errs, base)
			}
			loaded := snapshot(got)
			if len(loaded) != len(want) {
				t.Fatalf("stored %d entries, held %d", len(loaded), len(want))
			}
			for seq, w := range want {
				g, ok := loaded[seq]
				if !ok || g.id != w.id || g.service != w.service || !bytes.Equal(g.payload, w.payload) {
					t.Fatalf("seq %d stored as %+v (present %v), held %+v", seq, g, ok, w)
				}
			}

			_, wantTorn := want[lastStored]
			wantTorn = wantTorn && lastStored > safe
			t.Logf("held %d entries above %d; last stored %d, SafeBound %d, tear expected %v", len(want), base, lastStored, safe, wantTorn)
			if torn := a.store.TearLastWrite(); torn != wantTorn {
				t.Fatalf("TearLastWrite = %v, want %v (last stored %d, SafeBound %d)", torn, wantTorn, lastStored, safe)
			}
			_, after, _ := a.store.LoadChecked()
			for seq := range want {
				if gone := after.Get(seq) == nil; gone != (wantTorn && seq == lastStored) {
					t.Fatalf("after the tear seq %d present=%v; only the last stored entry %d may go", seq, !gone, lastStored)
				}
			}
		})
	}
}
