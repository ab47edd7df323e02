package evs

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/seqlog"
	"repro/internal/stable"
	"repro/internal/totem"
	"repro/internal/wire"
)

// world pumps recovery messages synchronously between a set of recovering
// processes (all proposing the same new ring).
type world struct {
	t     *testing.T
	procs map[model.ProcessID]*Recovery
	// results collects Finished outcomes.
	results map[model.ProcessID]Result
	// cut drops messages between processes when set.
	cut func(from, to model.ProcessID) bool
	// sent, when set, observes every message a process sends.
	sent func(from model.ProcessID, m wire.Message)
}

func newWorld(t *testing.T) *world {
	return &world{
		t:       t,
		procs:   make(map[model.ProcessID]*Recovery),
		results: make(map[model.ProcessID]Result),
	}
}

func (w *world) ids() []model.ProcessID {
	s := model.NewProcessSet()
	for id := range w.procs {
		s = s.Add(id)
	}
	return s.Members()
}

func (w *world) run() {
	type env struct {
		from model.ProcessID
		msg  wire.Message
	}
	var queue []env
	drain := func(from model.ProcessID, acts []Action) {
		for _, a := range acts {
			switch act := a.(type) {
			case Send:
				if w.sent != nil {
					w.sent(from, act.Msg)
				}
				queue = append(queue, env{from: from, msg: act.Msg})
			case Finished:
				w.results[from] = act.Result
			}
		}
	}
	for _, id := range w.ids() {
		drain(id, w.procs[id].Start())
	}
	steps := 0
	for len(queue) > 0 {
		if steps++; steps > 100000 {
			w.t.Fatal("recovery message storm")
		}
		e := queue[0]
		queue = queue[1:]
		for _, to := range w.ids() {
			if w.cut != nil && w.cut(e.from, to) {
				continue
			}
			r := w.procs[to]
			switch m := e.msg.(type) {
			case wire.Exchange:
				drain(to, r.OnExchange(m))
			case wire.Data:
				drain(to, r.OnData(m))
			case wire.RecoveryDone:
				drain(to, r.OnDone(m))
			}
		}
	}
}

func mkData(sender model.ProcessID, sseq, seq uint64, ring model.ConfigID, svc model.Service) wire.Data {
	return wire.Data{
		ID:      model.MessageID{Sender: sender, SenderSeq: sseq},
		Ring:    ring,
		Seq:     seq,
		Service: svc,
		Payload: []byte(fmt.Sprintf("%s:%d", sender, seq)),
	}
}

func seqsOf(es []*seqlog.Entry) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = e.Seq
	}
	return out
}

// Scenario shared by several tests: old ring {p,q,r} with p departed; q and
// r recover into new ring {q,r,s,t} alongside fresh processes s and t.
func figure6World(t *testing.T) (*world, model.Configuration, model.Configuration) {
	oldRing := model.Configuration{ID: model.RegularID(1, "p"), Members: model.NewProcessSet("p", "q", "r")}
	newRing := model.Configuration{ID: model.RegularID(2, "q"), Members: model.NewProcessSet("q", "r", "s", "t")}
	return newWorld(t), oldRing, newRing
}

func TestTransitionalSetSplitsByOldRing(t *testing.T) {
	w, oldRing, newRing := figure6World(t)
	empty := model.NewProcessSet()
	w.procs["q"] = New("q", newRing, oldRing, totem.State{}, nil, empty, nil)
	w.procs["r"] = New("r", newRing, oldRing, totem.State{}, nil, empty, nil)
	w.procs["s"] = New("s", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.procs["t"] = New("t", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.run()

	if len(w.results) != 4 {
		t.Fatalf("finished %d, want 4", len(w.results))
	}
	if got := w.procs["q"].Transitional(); !got.Equal(model.NewProcessSet("q", "r")) {
		t.Fatalf("q's transitional set %v, want {q,r}", got)
	}
	if got := w.procs["s"].Transitional(); !got.Equal(model.NewProcessSet("s", "t")) {
		t.Fatalf("s's transitional set %v, want {s,t}", got)
	}
	// q and r deliver a transitional configuration rooted at the old
	// ring; fresh s and t deliver none.
	qt := w.results["q"].Transitional
	if qt.ID.IsZero() || qt.ID.Prev() != oldRing.ID || !qt.Members.Equal(model.NewProcessSet("q", "r")) {
		t.Fatalf("q's transitional configuration %v", qt)
	}
	if !w.results["s"].Transitional.ID.IsZero() {
		t.Fatalf("fresh s should have no transitional configuration, got %v", w.results["s"].Transitional)
	}
}

func TestRebroadcastFillsPeersGaps(t *testing.T) {
	w, oldRing, newRing := figure6World(t)
	empty := model.NewProcessSet()
	m1 := mkData("p", 1, 1, oldRing.ID, model.Agreed)
	m2 := mkData("q", 1, 2, oldRing.ID, model.Agreed)
	m3 := mkData("r", 1, 3, oldRing.ID, model.Agreed)
	// q has 1,2; r has 1,3. Both should end with 1,2,3.
	qlog := logOf(m1, m2)
	rlog := logOf(m1, m3)
	w.procs["q"] = New("q", newRing, oldRing, totem.State{MyAru: 2, HighestSeen: 3}, qlog, empty, nil)
	w.procs["r"] = New("r", newRing, oldRing, totem.State{MyAru: 1, Have: []uint64{3}, HighestSeen: 3}, rlog, empty, nil)
	w.procs["s"] = New("s", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.procs["t"] = New("t", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.run()

	for _, id := range []model.ProcessID{"q", "r"} {
		res := w.results[id]
		all := append(seqsOf(res.OldRegular), seqsOf(res.Trans)...)
		if fmt.Sprint(all) != "[1 2 3]" {
			t.Fatalf("%s delivered %v, want [1 2 3]", id, all)
		}
	}
}

func TestSafeMessageAckedByTransitionalPeerDeliveredInTransitional(t *testing.T) {
	// Figure 6's message n: r sent n for safe delivery; q received it
	// but p (departed) never acknowledged. n cannot be safe in the old
	// regular configuration but is delivered in transitional {q,r}.
	w, oldRing, newRing := figure6World(t)
	empty := model.NewProcessSet()
	n := mkData("r", 1, 1, oldRing.ID, model.Safe)
	qlog := logOf(n)
	rlog := logOf(n)
	st := totem.State{MyAru: 1, SafeBound: 0, HighestSeen: 1}
	w.procs["q"] = New("q", newRing, oldRing, st, qlog, empty, nil)
	w.procs["r"] = New("r", newRing, oldRing, st, rlog, empty, nil)
	w.procs["s"] = New("s", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.procs["t"] = New("t", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.run()

	for _, id := range []model.ProcessID{"q", "r"} {
		res := w.results[id]
		if len(res.OldRegular) != 0 {
			t.Fatalf("%s delivered %v in the old regular configuration; n was not safe there", id, seqsOf(res.OldRegular))
		}
		if len(res.Trans) != 1 || res.Trans[0].Seq != 1 {
			t.Fatalf("%s transitional deliveries %v, want [1]", id, seqsOf(res.Trans))
		}
	}
}

func TestSafeMessageWithinSafeBoundDeliveredInOldRegular(t *testing.T) {
	w, oldRing, newRing := figure6World(t)
	empty := model.NewProcessSet()
	m := mkData("q", 1, 1, oldRing.ID, model.Safe)
	st := totem.State{MyAru: 1, SafeBound: 1, HighestSeen: 1}
	w.procs["q"] = New("q", newRing, oldRing, st, logOf(m), empty, nil)
	w.procs["r"] = New("r", newRing, oldRing, st, logOf(m), empty, nil)
	w.procs["s"] = New("s", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.procs["t"] = New("t", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.run()

	for _, id := range []model.ProcessID{"q", "r"} {
		res := w.results[id]
		if len(res.OldRegular) != 1 || res.OldRegular[0].Seq != 1 {
			t.Fatalf("%s old-regular deliveries %v, want [1]", id, seqsOf(res.OldRegular))
		}
	}
}

func TestSafeBoundLearnedFromPeerExchange(t *testing.T) {
	// r observed the message become safe before the partition; q did
	// not. q must learn the bound from r's exchange and deliver in the
	// old regular configuration too.
	w, oldRing, newRing := figure6World(t)
	empty := model.NewProcessSet()
	m := mkData("q", 1, 1, oldRing.ID, model.Safe)
	w.procs["q"] = New("q", newRing, oldRing, totem.State{MyAru: 1, SafeBound: 0, HighestSeen: 1}, logOf(m), empty, nil)
	w.procs["r"] = New("r", newRing, oldRing, totem.State{MyAru: 1, SafeBound: 1, HighestSeen: 1}, logOf(m), empty, nil)
	w.procs["s"] = New("s", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.procs["t"] = New("t", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.run()

	for _, id := range []model.ProcessID{"q", "r"} {
		if got := seqsOf(w.results[id].OldRegular); fmt.Sprint(got) != "[1]" {
			t.Fatalf("%s old-regular deliveries %v, want [1]", id, got)
		}
	}
}

func TestHoleDiscardsFollowersExceptObligations(t *testing.T) {
	// Figure 6's messages l and m: p sent l (seq 2) then m (seq 3); l
	// never reached q or r, so m — causally dependent on l — must be
	// discarded. A message from q (seq 4, an obligation member) past
	// the hole is still delivered.
	w, oldRing, newRing := figure6World(t)
	empty := model.NewProcessSet()
	m1 := mkData("q", 1, 1, oldRing.ID, model.Agreed)
	m3 := mkData("p", 2, 3, oldRing.ID, model.Agreed) // follows hole at 2
	m4 := mkData("q", 2, 4, oldRing.ID, model.Agreed)
	st := totem.State{MyAru: 1, Have: []uint64{3, 4}, HighestSeen: 4}
	w.procs["q"] = New("q", newRing, oldRing, st, logOf(m1, m3, m4), empty, nil)
	w.procs["r"] = New("r", newRing, oldRing, st, logOf(m1, m3, m4), empty, nil)
	w.procs["s"] = New("s", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.procs["t"] = New("t", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.run()

	for _, id := range []model.ProcessID{"q", "r"} {
		res := w.results[id]
		if fmt.Sprint(seqsOf(res.OldRegular)) != "[1]" {
			t.Fatalf("%s old-regular %v, want [1]", id, seqsOf(res.OldRegular))
		}
		if fmt.Sprint(seqsOf(res.Trans)) != "[4]" {
			t.Fatalf("%s transitional %v, want [4]: p's post-hole message discarded, q's delivered", id, seqsOf(res.Trans))
		}
		if fmt.Sprint(res.Discarded) != "[3]" {
			t.Fatalf("%s discarded %v, want [3]", id, res.Discarded)
		}
	}
}

func TestObligationSenderSurvivesHole(t *testing.T) {
	// A message from a process in the *incoming* obligation set (from a
	// previously interrupted recovery) is delivered past a hole even
	// though its sender is not in the transitional configuration.
	w, oldRing, newRing := figure6World(t)
	m1 := mkData("q", 1, 1, oldRing.ID, model.Agreed)
	m3 := mkData("p", 2, 3, oldRing.ID, model.Agreed)
	st := totem.State{MyAru: 1, Have: []uint64{3}, HighestSeen: 3}
	obl := model.NewProcessSet("p")
	w.procs["q"] = New("q", newRing, oldRing, st, logOf(m1, m3), obl, nil)
	w.procs["r"] = New("r", newRing, oldRing, st, logOf(m1, m3), obl, nil)
	w.procs["s"] = New("s", newRing, model.Configuration{}, totem.State{}, nil, model.NewProcessSet(), nil)
	w.procs["t"] = New("t", newRing, model.Configuration{}, totem.State{}, nil, model.NewProcessSet(), nil)
	w.run()

	for _, id := range []model.ProcessID{"q", "r"} {
		res := w.results[id]
		if fmt.Sprint(seqsOf(res.Trans)) != "[3]" {
			t.Fatalf("%s transitional %v, want [3] via obligation to p", id, seqsOf(res.Trans))
		}
	}
}

func TestObligationsExtendWithTransitionalMembers(t *testing.T) {
	w, oldRing, newRing := figure6World(t)
	empty := model.NewProcessSet()
	w.procs["q"] = New("q", newRing, oldRing, totem.State{}, nil, empty, nil)
	w.procs["r"] = New("r", newRing, oldRing, totem.State{}, nil, model.NewProcessSet("x"), nil)
	w.procs["s"] = New("s", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.procs["t"] = New("t", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.run()

	// Step 5.c: q's obligations should include the transitional members
	// and r's obligation to x.
	got := w.procs["q"].Obligations()
	want := model.NewProcessSet("q", "r", "x")
	if !got.Equal(want) {
		t.Fatalf("q's obligations %v, want %v", got, want)
	}
}

func TestFailureAtomicityIdenticalResults(t *testing.T) {
	// Members with different watermarks must deliver the same total set
	// per configuration.
	w, oldRing, newRing := figure6World(t)
	empty := model.NewProcessSet()
	msgs := make([]wire.Data, 7) // indexed by seq
	for seq := uint64(1); seq <= 6; seq++ {
		svc := model.Agreed
		if seq%2 == 0 {
			svc = model.Safe
		}
		msgs[seq] = mkData("p", seq, seq, oldRing.ID, svc)
	}
	// q delivered up to 4 (observed safe bound 4); r only up to 1.
	qlog := logOf(msgs[1:]...)
	rlog := logOf(msgs[1], msgs[2], msgs[3], msgs[5])
	w.procs["q"] = New("q", newRing, oldRing, totem.State{MyAru: 6, SafeBound: 4, DeliveredUpTo: 4, HighestSeen: 6}, qlog, empty, nil)
	w.procs["r"] = New("r", newRing, oldRing, totem.State{MyAru: 3, Have: []uint64{5}, SafeBound: 2, DeliveredUpTo: 1, HighestSeen: 6}, rlog, empty, nil)
	w.procs["s"] = New("s", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.procs["t"] = New("t", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.run()

	q, r := w.results["q"], w.results["r"]
	// Union of operational deliveries (up to watermark) and recovery
	// deliveries must match per configuration.
	qOld := append(rangeSeqs(1, 4), seqsOf(q.OldRegular)...)
	rOld := append(rangeSeqs(1, 1), seqsOf(r.OldRegular)...)
	if fmt.Sprint(qOld) != fmt.Sprint(rOld) {
		t.Fatalf("old-regular sets differ: q=%v r=%v", qOld, rOld)
	}
	if fmt.Sprint(seqsOf(q.Trans)) != fmt.Sprint(seqsOf(r.Trans)) {
		t.Fatalf("transitional sets differ: q=%v r=%v", seqsOf(q.Trans), seqsOf(r.Trans))
	}
}

func TestFreshProcessesFinishWithNoDeliveries(t *testing.T) {
	w := newWorld(t)
	newRing := model.Configuration{ID: model.RegularID(1, "a"), Members: model.NewProcessSet("a", "b")}
	empty := model.NewProcessSet()
	w.procs["a"] = New("a", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.procs["b"] = New("b", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.run()
	for _, id := range []model.ProcessID{"a", "b"} {
		res, ok := w.results[id]
		if !ok {
			t.Fatalf("%s did not finish", id)
		}
		if len(res.OldRegular) != 0 || len(res.Trans) != 0 || !res.Transitional.ID.IsZero() {
			t.Fatalf("%s fresh recovery delivered %+v", id, res)
		}
	}
}

func TestRetryMasksMessageLoss(t *testing.T) {
	w, oldRing, newRing := figure6World(t)
	empty := model.NewProcessSet()
	m1 := mkData("q", 1, 1, oldRing.ID, model.Agreed)
	w.procs["q"] = New("q", newRing, oldRing, totem.State{MyAru: 1, HighestSeen: 1}, logOf(m1), empty, nil)
	w.procs["r"] = New("r", newRing, oldRing, totem.State{HighestSeen: 1}, nil, empty, nil)
	w.procs["s"] = New("s", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.procs["t"] = New("t", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	// Lose everything q sends the first time through.
	lost := map[string]bool{}
	w.cut = func(from, to model.ProcessID) bool {
		if from == "q" && to != "q" {
			k := fmt.Sprintf("%s->%s", from, to)
			if !lost[k] {
				lost[k] = true
				return true
			}
		}
		return false
	}
	w.run()
	if w.procs["q"].Finished() {
		t.Fatal("q cannot finish while peers lack its exchange")
	}
	// Fire the retry timer at q; the re-sent exchange completes the
	// exchange round everywhere.
	type env struct {
		from model.ProcessID
		acts []Action
	}
	retries := []env{{from: "q", acts: w.procs["q"].OnRetry()}}
	for _, e := range retries {
		for _, a := range e.acts {
			if s, ok := a.(Send); ok {
				for _, to := range w.ids() {
					r := w.procs[to]
					switch m := s.Msg.(type) {
					case wire.Exchange:
						pump(w, to, r.OnExchange(m))
					case wire.Data:
						pump(w, to, r.OnData(m))
					case wire.RecoveryDone:
						pump(w, to, r.OnDone(m))
					}
				}
			}
		}
	}
	w.cut = nil
	w.run() // drain any remaining traffic via fresh Start broadcasts
	// After retry, run to completion by pumping retries on all.
	for tries := 0; tries < 5 && len(w.results) < 4; tries++ {
		for _, id := range w.ids() {
			pumpActs(w, id, w.procs[id].OnRetry())
		}
	}
	if len(w.results) != 4 {
		t.Fatalf("finished %d of 4 after retries", len(w.results))
	}
}

// pump routes follow-up actions produced while handling a retry.
func pump(w *world, from model.ProcessID, acts []Action) {
	pumpActs(w, from, acts)
}

func pumpActs(w *world, from model.ProcessID, acts []Action) {
	for _, a := range acts {
		switch act := a.(type) {
		case Send:
			for _, to := range w.ids() {
				if w.cut != nil && w.cut(from, to) {
					continue
				}
				r := w.procs[to]
				switch m := act.Msg.(type) {
				case wire.Exchange:
					pumpActs(w, to, r.OnExchange(m))
				case wire.Data:
					pumpActs(w, to, r.OnData(m))
				case wire.RecoveryDone:
					pumpActs(w, to, r.OnDone(m))
				}
			}
		case Finished:
			w.results[from] = act.Result
		}
	}
}

func TestStragglerOutsideNeededSetDropped(t *testing.T) {
	w, oldRing, newRing := figure6World(t)
	empty := model.NewProcessSet()
	m1 := mkData("q", 1, 1, oldRing.ID, model.Agreed)
	st := totem.State{MyAru: 1, HighestSeen: 1}
	w.procs["q"] = New("q", newRing, oldRing, st, logOf(m1), empty, nil)
	w.procs["r"] = New("r", newRing, oldRing, st, logOf(m1), empty, nil)
	w.procs["s"] = New("s", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.procs["t"] = New("t", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.run()
	// A straggler with seq 7 (nobody claimed it) arrives at q after the
	// plan: it must be dropped, not delivered.
	straggler := mkData("p", 9, 7, oldRing.ID, model.Agreed)
	w.procs["q"].OnData(straggler) // finished already; no effect
	res := w.results["q"]
	for _, d := range append(res.OldRegular, res.Trans...) {
		if d.Seq == 7 {
			t.Fatal("straggler outside the needed set was delivered")
		}
	}
}

// logOf builds a fresh old-ring log holding ds at their sequence numbers.
func logOf(ds ...wire.Data) *seqlog.Log {
	l := &seqlog.Log{}
	for _, d := range ds {
		e, _ := l.Put(d.Seq)
		e.Set(&d)
	}
	return l
}

func rangeSeqs(from, to uint64) []uint64 {
	var out []uint64
	for s := from; s <= to; s++ {
		out = append(out, s)
	}
	return out
}

// TestBitRottedEntryRebroadcastAndDeliveredInOrder follows a storage-rotted
// log entry through the path production takes after a crash: the store's
// checksums drop it at LoadChecked, the restarted process merges later
// messages above it and fails again, leaving a hole below the received
// watermark; the recovering process's exchange does not claim it; a peer
// that holds it rebroadcasts it; and Step 6 delivers the whole window in
// order, the repaired entry in its place.
func TestBitRottedEntryRebroadcastAndDeliveredInOrder(t *testing.T) {
	w, oldRing, newRing := figure6World(t)
	empty := model.NewProcessSet()
	msgs := make([]wire.Data, 9) // indexed by seq
	for seq := uint64(1); seq <= 8; seq++ {
		msgs[seq] = mkData("p", seq, seq, oldRing.ID, model.Agreed)
	}
	st := &stable.Store{}
	// The first crash stores 1..4 and rots the highest of them (seq 4).
	st.SaveLog(oldRing.ID, logOf(msgs[1:5]...), 4)
	if n := st.FlipLogBits(1); n != 1 {
		t.Fatalf("FlipLogBits corrupted %d entries, want 1", n)
	}
	_, qlog, errs := st.LoadChecked()
	if len(errs) != 1 || qlog.Get(4) != nil || qlog.Len() != 3 {
		t.Fatalf("LoadChecked: errors %v, seq 4 present=%v, Len=%d; want the rotted entry alone dropped", errs, qlog.Get(4) != nil, qlog.Len())
	}
	// The restarted process merges stragglers 5..8 above the hole and
	// fails again: the damage ends up mid-log, below the watermark.
	for seq := uint64(5); seq <= 8; seq++ {
		e, _ := qlog.Put(seq)
		e.Set(&msgs[seq])
	}
	st.SaveLog(oldRing.ID, qlog, 8)
	if _, qlog, errs = st.LoadChecked(); len(errs) != 0 || qlog.Get(4) != nil || qlog.Len() != 7 {
		t.Fatalf("second LoadChecked: errors %v, seq 4 present=%v, Len=%d; want 1..8 without 4", errs, qlog.Get(4) != nil, qlog.Len())
	}

	// Both had delivered up to 1 before the configuration changed.
	state := totem.State{SafeBound: 1, DeliveredUpTo: 1, HighestSeen: 8}
	w.procs["q"] = New("q", newRing, oldRing, state, qlog, empty, nil)
	w.procs["r"] = New("r", newRing, oldRing, state, logOf(msgs[1:]...), empty, nil)
	w.procs["s"] = New("s", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.procs["t"] = New("t", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	if x := w.procs["q"].frozen; x.MyAru != 3 || fmt.Sprint(x.Have) != "[5 6 7 8]" {
		t.Fatalf("q's exchange claims MyAru=%d Have=%v, want 3 and [5 6 7 8]", x.MyAru, x.Have)
	}
	var rebroadcast []string
	w.sent = func(from model.ProcessID, m wire.Message) {
		if d, ok := m.(wire.Data); ok {
			rebroadcast = append(rebroadcast, fmt.Sprintf("%s:%d", from, d.Seq))
		}
	}
	w.run()
	if fmt.Sprint(rebroadcast) != "[r:4]" {
		t.Fatalf("rebroadcasts %v, want r's of seq 4 alone", rebroadcast)
	}
	for _, id := range []model.ProcessID{"q", "r"} {
		if got := seqsOf(w.results[id].OldRegular); fmt.Sprint(got) != "[2 3 4 5 6 7 8]" {
			t.Fatalf("%s delivered %v in the old regular configuration, want [2 3 4 5 6 7 8]", id, got)
		}
	}
}

// TestRecoveryPutAtAndPastTheLimit pins the recovery log's bound. A needed
// sequence number cannot lie past the limit on a conforming schedule: it
// was assigned in the old ring, whose receive window — this very log,
// handed over with its limit — accepted every number up to the highest the
// ring could assign above its trimmed prefix. A rebroadcast past the limit
// (a damaged claim) is therefore refused like a lost packet: nothing is
// stored and no watermark moves.
func TestRecoveryPutAtAndPastTheLimit(t *testing.T) {
	w, oldRing, newRing := figure6World(t)
	empty := model.NewProcessSet()
	const limit = 8
	qlog := &seqlog.Log{Limit: limit}
	rlog := logOf(mkData("p", 1, limit, oldRing.ID, model.Agreed), mkData("p", 2, limit+1, oldRing.ID, model.Agreed))
	w.procs["q"] = New("q", newRing, oldRing, totem.State{}, qlog, empty, nil)
	w.procs["r"] = New("r", newRing, oldRing, totem.State{}, rlog, empty, nil)
	w.procs["s"] = New("s", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	w.procs["t"] = New("t", newRing, model.Configuration{}, totem.State{}, nil, empty, nil)
	q := w.procs["q"]
	w.cut = func(_, to model.ProcessID) bool { return to == "q" }
	w.run()
	w.cut = nil
	for _, id := range w.ids() {
		q.OnExchange(w.procs[id].frozen)
	}
	if !q.Planned() || !q.needed(limit) || !q.needed(limit+1) {
		t.Fatal("q's plan must need both of r's entries")
	}
	before := q.Watermarks()
	q.OnData(mkData("p", 2, limit+1, oldRing.ID, model.Agreed))
	if qlog.Len() != 0 || qlog.High() != 0 || fmt.Sprint(q.Watermarks()) != fmt.Sprint(before) {
		t.Fatalf("a put past the limit moved state: Len=%d High=%d watermarks %+v, were %+v", qlog.Len(), qlog.High(), q.Watermarks(), before)
	}
	q.OnData(mkData("p", 1, limit, oldRing.ID, model.Agreed))
	if qlog.Get(limit) == nil || qlog.Len() != 1 {
		t.Fatal("a needed entry at the limit must be stored")
	}
}
