package totem

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/seqlog"
	"repro/internal/wire"
)

// harness drives a set of rings by hand, playing the network: tokens are
// forwarded to successors and broadcasts fanned out to all members,
// optionally with loss.
type harness struct {
	t     *testing.T
	rings map[model.ProcessID]*Ring
	order []model.ProcessID
	// delivered records payloads per process in delivery order.
	delivered map[model.ProcessID][]wire.Data
	// dropData, when set, decides whether a data broadcast copy is lost.
	dropData func(to model.ProcessID, d wire.Data) bool
	token    wire.Token
	holder   int // index into order of the process about to receive token
}

func newHarness(t *testing.T, ids ...model.ProcessID) *harness {
	return newHarnessOpts(t, DefaultOptions(), ids...)
}

func newHarnessOpts(t *testing.T, opts Options, ids ...model.ProcessID) *harness {
	cfg := model.Configuration{ID: model.RegularID(1, ids[0]), Members: model.NewProcessSet(ids...)}
	h := &harness{
		t:         t,
		rings:     make(map[model.ProcessID]*Ring),
		delivered: make(map[model.ProcessID][]wire.Data),
	}
	h.order = cfg.Members.Members()
	for _, id := range h.order {
		h.rings[id] = New(id, cfg, opts)
	}
	h.token = h.rings[h.order[0]].InitialToken()
	return h
}

// rotate performs one full token rotation.
func (h *harness) rotate() {
	for range h.order {
		id := h.order[h.holder]
		r := h.rings[id]
		res := r.OnToken(h.token)
		if !res.Accepted {
			h.t.Fatalf("%s rejected token %v", id, h.token)
		}
		h.record(id, res.Deliveries)
		for _, d := range res.Broadcasts {
			for _, to := range h.order {
				if to == id {
					continue // originator already holds it
				}
				if h.dropData != nil && h.dropData(to, d) {
					continue
				}
				h.record(to, h.rings[to].OnData(d))
			}
		}
		h.token = res.Forward
		h.holder = (h.holder + 1) % len(h.order)
	}
}

// record copies deliveries out of the ring's log, which trims them later.
func (h *harness) record(id model.ProcessID, es []*seqlog.Entry) {
	for _, e := range es {
		h.delivered[id] = append(h.delivered[id], e.Data(h.rings[id].Config().ID))
	}
}

func (h *harness) submit(id model.ProcessID, n int, svc model.Service) {
	r := h.rings[id]
	for i := 0; i < n; i++ {
		r.Submit(Pending{
			ID:      model.MessageID{Sender: id, SenderSeq: uint64(len(h.delivered[id]) + i + 1000)},
			Service: svc,
			Payload: []byte(fmt.Sprintf("%s-%d", id, i)),
		})
	}
}

func payloads(ds []wire.Data) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = string(d.Payload)
	}
	return out
}

func TestAgreedDeliveryTotalOrder(t *testing.T) {
	h := newHarness(t, "p", "q", "r")
	h.submit("p", 3, model.Agreed)
	h.submit("q", 2, model.Agreed)
	for i := 0; i < 4; i++ {
		h.rotate()
	}
	ref := payloads(h.delivered["p"])
	if len(ref) != 5 {
		t.Fatalf("p delivered %v, want all 5", ref)
	}
	for _, id := range []model.ProcessID{"q", "r"} {
		got := payloads(h.delivered[id])
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("%s delivered %v, p delivered %v: total order violated", id, got, ref)
		}
	}
}

func TestSeqsAreContiguousFromOne(t *testing.T) {
	h := newHarness(t, "p", "q")
	h.submit("p", 2, model.Agreed)
	h.submit("q", 2, model.Agreed)
	for i := 0; i < 3; i++ {
		h.rotate()
	}
	for i, d := range h.delivered["p"] {
		if d.Seq != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d", i, d.Seq)
		}
	}
}

func TestSafeDeliveryNeedsTwoVisits(t *testing.T) {
	h := newHarness(t, "p", "q", "r")
	h.submit("p", 1, model.Safe)
	h.rotate()
	// After one rotation the message is sequenced and received
	// everywhere but cannot yet be safe anywhere.
	for id, ds := range h.delivered {
		if len(ds) != 0 {
			t.Fatalf("%s delivered %v before message was safe", id, payloads(ds))
		}
	}
	h.rotate()
	h.rotate()
	for _, id := range h.order {
		if len(h.delivered[id]) != 1 {
			t.Fatalf("%s delivered %v, want the safe message", id, payloads(h.delivered[id]))
		}
	}
}

func TestBlockedSafeMessageBlocksSuccessors(t *testing.T) {
	h := newHarness(t, "p", "q")
	h.submit("p", 1, model.Safe)
	h.submit("q", 1, model.Agreed)
	h.rotate()
	// The agreed message is sequenced after the safe one and must not
	// jump the queue even though it needs no acknowledgment.
	for id, ds := range h.delivered {
		for _, d := range ds {
			if d.Service == model.Agreed {
				t.Fatalf("%s delivered agreed message before preceding safe message", id)
			}
		}
	}
	for i := 0; i < 3; i++ {
		h.rotate()
	}
	got := payloads(h.delivered["q"])
	if len(got) != 2 || got[0] != "p-0" {
		t.Fatalf("q delivered %v, want safe first then agreed", got)
	}
}

func TestRetransmissionFillsGaps(t *testing.T) {
	h := newHarness(t, "p", "q", "r")
	// r loses every first copy of p's data.
	lost := map[uint64]bool{}
	h.dropData = func(to model.ProcessID, d wire.Data) bool {
		if to == "r" && !d.Retrans && !lost[d.Seq] {
			lost[d.Seq] = true
			return true
		}
		return false
	}
	h.submit("p", 5, model.Agreed)
	for i := 0; i < 5; i++ {
		h.rotate()
	}
	got := payloads(h.delivered["r"])
	if len(got) != 5 {
		t.Fatalf("r delivered %v, want all 5 after retransmission", got)
	}
	want := payloads(h.delivered["p"])
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("r delivered %v, p delivered %v", got, want)
	}
}

func TestSafeNotDeliveredWhileMemberMissingMessage(t *testing.T) {
	h := newHarness(t, "p", "q", "r")
	// r never receives seq 1 (not even retransmissions).
	h.dropData = func(to model.ProcessID, d wire.Data) bool {
		return to == "r" && d.Seq == 1
	}
	h.submit("p", 1, model.Safe)
	for i := 0; i < 6; i++ {
		h.rotate()
	}
	for _, id := range h.order {
		if n := len(h.delivered[id]); n != 0 {
			t.Fatalf("%s delivered %d messages although r never received seq 1", id, n)
		}
	}
}

func TestStaleTokenRejected(t *testing.T) {
	h := newHarness(t, "p", "q")
	h.rotate()
	stale := wire.Token{Ring: h.rings["p"].Config().ID, TokenID: 1}
	if res := h.rings["p"].OnToken(stale); res.Accepted {
		t.Fatal("stale token must be rejected")
	}
	wrongRing := wire.Token{Ring: model.RegularID(99, "z"), TokenID: 100}
	if res := h.rings["p"].OnToken(wrongRing); res.Accepted {
		t.Fatal("token for another ring must be rejected")
	}
}

func TestDuplicateDataIgnored(t *testing.T) {
	h := newHarness(t, "p", "q")
	h.submit("p", 1, model.Agreed)
	h.rotate()
	d := h.rings["q"].log.Get(1).Data(h.rings["q"].Config().ID)
	if got := h.rings["q"].OnData(d); got != nil {
		t.Fatalf("duplicate data redelivered: %v", got)
	}
	if h.rings["q"].Snapshot().MyAru != 1 {
		t.Fatal("aru should be unaffected by duplicates")
	}
}

func TestSingletonRingDeliversOwnSafeMessages(t *testing.T) {
	h := newHarness(t, "p")
	h.submit("p", 2, model.Safe)
	for i := 0; i < 3; i++ {
		h.rotate()
	}
	if got := payloads(h.delivered["p"]); len(got) != 2 {
		t.Fatalf("singleton delivered %v, want both", got)
	}
}

func TestMaxPerTokenLimit(t *testing.T) {
	cfg := model.Configuration{ID: model.RegularID(1, "p"), Members: model.NewProcessSet("p")}
	r := New("p", cfg, Options{MaxPerToken: 3, Window: 1000})
	for i := 0; i < 10; i++ {
		r.Submit(Pending{ID: model.MessageID{Sender: "p", SenderSeq: uint64(i + 1)}, Service: model.Agreed})
	}
	res := r.OnToken(r.InitialToken())
	if len(res.Sent) != 3 {
		t.Fatalf("sequenced %d, want 3", len(res.Sent))
	}
}

func TestSnapshotReportsHaveBeyondAru(t *testing.T) {
	cfg := model.Configuration{ID: model.RegularID(1, "p"), Members: model.NewProcessSet("p", "q")}
	r := New("p", cfg, DefaultOptions())
	mk := func(seq uint64) wire.Data {
		return wire.Data{ID: model.MessageID{Sender: "q", SenderSeq: seq}, Ring: cfg.ID, Seq: seq, Service: model.Agreed}
	}
	r.OnData(mk(1))
	r.OnData(mk(3))
	r.OnData(mk(5))
	st := r.Snapshot()
	if st.MyAru != 1 {
		t.Fatalf("MyAru = %d, want 1", st.MyAru)
	}
	if fmt.Sprint(st.Have) != "[3 5]" {
		t.Fatalf("Have = %v, want [3 5]", st.Have)
	}
	if st.HighestSeen != 5 {
		t.Fatalf("HighestSeen = %d, want 5", st.HighestSeen)
	}
}

// TestWindowExhaustionBlocksSequencingAcrossVisits pins the flow-control
// invariant token.Seq - token.Aru < window over multiple visits: while a
// member's receipts stall the aru, the sender keeps retransmitting but
// sequences nothing new once the window is full, and resumes only once
// the aru advances. AdaptiveMax = MaxPerToken pins the budget at 2, so the
// effective window is max(Window, 2·members·budget) = 8 and the sender
// fills it over four visits: only unacknowledged messages inherited from
// earlier visits can exhaust it.
func TestWindowExhaustionBlocksSequencingAcrossVisits(t *testing.T) {
	h := newHarnessOpts(t, Options{MaxPerToken: 2, Window: 8, AdaptiveMax: 2}, "p", "q")
	h.dropData = func(to model.ProcessID, _ wire.Data) bool { return to == "q" }
	h.submit("p", 50, model.Agreed)
	for i := 0; i < 8; i++ {
		h.rotate()
	}
	// Two messages per visit until the window is full, then nothing:
	// Seq stays at 8 because q's aru is pinned at 0.
	if h.token.Seq != 8 {
		t.Fatalf("token.Seq = %d, want 8 (window exhausted)", h.token.Seq)
	}
	if got := h.rings["p"].PendingCount(); got != 42 {
		t.Fatalf("pending = %d, want 42", got)
	}
	if len(h.delivered["q"]) != 0 {
		t.Fatalf("q delivered %d messages with all data dropped", len(h.delivered["q"]))
	}
	// Heal the link: retransmissions land, the aru advances, and
	// sequencing resumes.
	h.dropData = nil
	for i := 0; i < 4; i++ {
		h.rotate()
	}
	if h.token.Seq <= 8 {
		t.Fatalf("token.Seq = %d, want progress after heal", h.token.Seq)
	}
	if got := h.rings["p"].PendingCount(); got >= 42 {
		t.Fatalf("pending = %d, want sequencing resumed", got)
	}
	if len(h.delivered["q"]) == 0 {
		t.Fatal("q delivered nothing after heal")
	}
}

// TestAdaptiveBudgetGrowsWhenLossFree drives a saturated loss-free ring and
// checks the per-visit budget climbs from MaxPerToken to AdaptiveMax.
func TestAdaptiveBudgetGrowsWhenLossFree(t *testing.T) {
	cfg := model.Configuration{ID: model.RegularID(1, "p"), Members: model.NewProcessSet("p")}
	r := New("p", cfg, Options{MaxPerToken: 4, Window: 8, AdaptiveMax: 32})
	for i := 0; i < 400; i++ {
		r.Submit(Pending{ID: model.MessageID{Sender: "p", SenderSeq: uint64(i + 1)}, Service: model.Agreed})
	}
	tok := r.InitialToken()
	first := -1
	last := 0
	for i := 0; i < 8; i++ {
		res := r.OnToken(tok)
		if !res.Accepted {
			t.Fatal("token rejected")
		}
		if first < 0 {
			first = len(res.Sent)
		}
		last = len(res.Sent)
		tok = res.Forward
	}
	if first != 4 {
		t.Fatalf("first visit sequenced %d, want the MaxPerToken floor 4", first)
	}
	if last != 32 {
		t.Fatalf("steady-state visit sequenced %d, want the AdaptiveMax cap 32", last)
	}
	if r.curMax != 32 {
		t.Fatalf("curMax = %d, want 32", r.curMax)
	}
}

// TestAdaptiveBudgetShrinksUnderPersistentLoss grows the budget, then cuts
// one member's data reception: once the missing messages are two rotations
// old the requests count as loss and the budget collapses to the floor.
func TestAdaptiveBudgetShrinksUnderPersistentLoss(t *testing.T) {
	opts := Options{MaxPerToken: 2, Window: 256, AdaptiveMax: 64}
	h := newHarnessOpts(t, opts, "p", "q")
	h.submit("p", 500, model.Agreed)
	for i := 0; i < 4; i++ {
		h.rotate()
	}
	grown := h.rings["p"].curMax
	if grown <= opts.MaxPerToken {
		t.Fatalf("budget did not grow while loss-free: curMax = %d", grown)
	}
	h.dropData = func(to model.ProcessID, _ wire.Data) bool { return to == "q" }
	for i := 0; i < 6; i++ {
		h.rotate()
	}
	if got := h.rings["p"].curMax; got != opts.MaxPerToken {
		t.Fatalf("curMax = %d after persistent loss, want the floor %d (was %d)", got, opts.MaxPerToken, grown)
	}
}

// TestTokenRtrListsExactlyTheGaps checks the retransmission request list is
// built from the gap ranges: exactly the missing sequence numbers, sorted.
func TestTokenRtrListsExactlyTheGaps(t *testing.T) {
	h := newHarness(t, "p", "q")
	h.dropData = func(to model.ProcessID, d wire.Data) bool {
		return to == "q" && (d.Seq == 2 || d.Seq == 4)
	}
	h.submit("p", 5, model.Agreed)
	h.rotate()
	// The token has completed q's visit: its requests are q's gaps.
	if fmt.Sprint(h.token.Rtr) != "[{2 2} {4 4}]" {
		t.Fatalf("token.Rtr = %v, want [{2 2} {4 4}]", h.token.Rtr)
	}
}

// TestTokenVisitMixesRetransmissionsAndFreshSends checks one visit's
// broadcast list carries requested retransmissions first, then newly
// sequenced messages — the mixed batch the transport packs into a single
// packet.
func TestTokenVisitMixesRetransmissionsAndFreshSends(t *testing.T) {
	cfg := model.Configuration{ID: model.RegularID(1, "p"), Members: model.NewProcessSet("p", "q")}
	p := New("p", cfg, DefaultOptions())
	q := New("q", cfg, DefaultOptions())
	sub := func(r *Ring, n int) {
		for i := 0; i < n; i++ {
			r.Submit(Pending{ID: model.MessageID{Sender: r.self, SenderSeq: uint64(100 + i)}, Service: model.Agreed})
		}
	}
	sub(p, 2)
	res := p.OnToken(p.InitialToken())
	if len(res.Sent) != 2 {
		t.Fatalf("sequenced %d, want 2", len(res.Sent))
	}
	// q never receives the data, only the token: it requests 1 and 2.
	res = q.OnToken(res.Forward)
	if fmt.Sprint(res.Forward.Rtr) != "[{1 2}]" {
		t.Fatalf("q requested %v, want [{1 2}]", res.Forward.Rtr)
	}
	sub(p, 2)
	res = p.OnToken(res.Forward)
	if len(res.Broadcasts) != 4 || len(res.Sent) != 2 {
		t.Fatalf("broadcasts %d sent %d, want 4 and 2", len(res.Broadcasts), len(res.Sent))
	}
	for i, d := range res.Broadcasts {
		wantRetrans := i < 2
		if d.Retrans != wantRetrans {
			t.Fatalf("broadcast %d (seq %d) Retrans = %v, want %v", i, d.Seq, d.Retrans, wantRetrans)
		}
	}
}

// TestHoleyLogRequestsMissingTail checks a log with holes, and a token
// announcing a number beyond its highest receipt, yields the gap ranges:
// the forwarded token re-requests exactly the missing messages, the tail
// included, and delivery stops at the first hole.
func TestHoleyLogRequestsMissingTail(t *testing.T) {
	cfg := model.Configuration{ID: model.RegularID(1, "p"), Members: model.NewProcessSet("p", "q")}
	r := New("p", cfg, DefaultOptions())
	mk := func(seq uint64) wire.Data {
		return wire.Data{ID: model.MessageID{Sender: "q", SenderSeq: seq}, Ring: cfg.ID, Seq: seq, Service: model.Agreed}
	}
	for _, seq := range []uint64{1, 3, 6} {
		r.OnData(mk(seq))
	}
	st := r.Snapshot()
	if st.MyAru != 1 || st.HighestSeen != 6 || st.DeliveredUpTo != 1 {
		t.Fatalf("holey snapshot %+v", st)
	}
	if fmt.Sprint(st.Have) != "[3 6]" {
		t.Fatalf("Have = %v, want [3 6]", st.Have)
	}
	res := r.OnToken(wire.Token{Ring: cfg.ID, TokenID: 1, Seq: 7, Aru: 1, AruID: "q"})
	if fmt.Sprint(res.Forward.Rtr) != "[{2 2} {4 5} {7 7}]" {
		t.Fatalf("token.Rtr = %v, want [{2 2} {4 5} {7 7}]", res.Forward.Rtr)
	}
	if r.highestSeen != 7 || len(res.Deliveries) != 0 {
		t.Fatalf("highestSeen=%d deliveries=%v after the token, want 7 and none", r.highestSeen, seqsOf(res.Deliveries))
	}
}

func TestRandomLossConvergesToSameOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := newHarness(t, "a", "b", "c", "d")
	h.dropData = func(to model.ProcessID, d wire.Data) bool {
		return rng.Float64() < 0.2
	}
	for round := 0; round < 10; round++ {
		for _, id := range h.order {
			h.rings[id].Submit(Pending{
				ID:      model.MessageID{Sender: id, SenderSeq: uint64(round + 1)},
				Service: model.Agreed,
				Payload: []byte(fmt.Sprintf("%s/%d", id, round)),
			})
		}
		h.rotate()
	}
	h.dropData = nil
	for i := 0; i < 10; i++ {
		h.rotate()
	}
	ref := payloads(h.delivered["a"])
	if len(ref) != 40 {
		t.Fatalf("a delivered %d, want 40", len(ref))
	}
	for _, id := range h.order[1:] {
		if fmt.Sprint(payloads(h.delivered[id])) != fmt.Sprint(ref) {
			t.Fatalf("%s order differs from a", id)
		}
	}
}

// seqsOf projects log slots onto their ring sequence numbers.
func seqsOf(es []*seqlog.Entry) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = e.Seq
	}
	return out
}

// TestTrimSlidesTheWindowWithoutLosingRetainedEntries runs a ring long
// past its retention cushion: the log must hold a bounded window whatever
// the run length, every retained entry must still be served by sequence
// number after the slots have wrapped, and a lost message from the
// retained range must still be retransmittable.
func TestTrimSlidesTheWindowWithoutLosingRetainedEntries(t *testing.T) {
	h := newHarness(t, "a", "b")
	a, b := h.rings["a"], h.rings["b"]
	lost := uint64(0)
	h.dropData = func(to model.ProcessID, d wire.Data) bool {
		return to == "b" && d.Seq == lost && !d.Retrans
	}
	total := 0
	for rot := 0; rot < 400; rot++ {
		h.submit("a", 16, model.Agreed)
		h.submit("b", 16, model.Safe)
		if rot == 300 {
			lost = a.highestSeen + 3 // one loss deep into the run, after many trims
		}
		h.rotate()
		total += 32
		if a.Len() > int(a.logWindow()) || uint64(a.Len()) != a.highestSeen-a.Trimmed() {
			t.Fatalf("rotation %d: Len=%d with trimmed=%d highestSeen=%d window=%d", rot, a.Len(), a.Trimmed(), a.highestSeen, a.logWindow())
		}
	}
	for i := 0; i < 4; i++ {
		h.rotate()
	}
	for _, r := range []*Ring{a, b} {
		if r.Trimmed() < trimChunk || r.Trimmed()+r.retainCushion() > r.DeliveredUpTo() {
			t.Fatalf("trimmed=%d delivered=%d cushion=%d: the trim bound must trail delivery by the cushion", r.Trimmed(), r.DeliveredUpTo(), r.retainCushion())
		}
		held := 0
		for seq := uint64(1); seq <= r.highestSeen; seq++ {
			e := r.log.Get(seq)
			if ok := e != nil; ok != (seq > r.Trimmed()) || (ok && e.Seq != seq) {
				t.Fatalf("seq %d (trimmed=%d): present=%v", seq, r.Trimmed(), ok)
			}
			if e != nil {
				held++
			}
		}
		if held != r.Len() {
			t.Fatalf("log holds %d entries, Len=%d", held, r.Len())
		}
		// The handoff to the recovery moves the window as it stands:
		// based at the trimmed prefix, every retained entry, no copy left
		// behind.
		n, trimmed := r.Len(), r.Trimmed()
		l := r.TakeLog()
		if l.Len() != n || l.Base() != trimmed || l.Get(trimmed+1) == nil || r.Len() != 0 {
			t.Fatalf("TakeLog: Len=%d Base=%d, want %d and %d; ring keeps %d", l.Len(), l.Base(), n, trimmed, r.Len())
		}
	}
	if got := len(h.delivered["b"]); got != total || len(h.delivered["a"]) != total {
		t.Fatalf("delivered a=%d b=%d, want %d each (the lost message was retransmitted from the retained window)", len(h.delivered["a"]), got, total)
	}
	for i, d := range h.delivered["b"] {
		if d.Seq != uint64(i+1) {
			t.Fatalf("b's delivery %d has seq %d", i, d.Seq)
		}
	}
}

// TestLogWindowAtAndPastTheBound pins the receive log's bound: a message
// exactly logWindow above the trimmed prefix is stored, one past it — or
// a corrupt, far-off sequence number — is refused like a lost packet,
// leaving the watermarks and the gap list untouched and allocating
// nothing for it.
func TestLogWindowAtAndPastTheBound(t *testing.T) {
	r := propRing()
	w := r.logWindow()
	if !put(r, propData(w)) {
		t.Fatal("a message at the bound must be stored")
	}
	high, gaps := r.highestSeen, fmt.Sprint(r.gaps)
	if put(r, propData(w+1)) || r.OnData(propData(1<<50)) != nil {
		t.Fatal("a message past the bound must be refused")
	}
	if r.highestSeen != high || fmt.Sprint(r.gaps) != gaps || r.Len() != 1 {
		t.Fatalf("refused message moved state: highestSeen=%d gaps=%v Len=%d", r.highestSeen, r.gaps, r.Len())
	}
	// The bound is relative to the trimmed prefix: once the trim path
	// has advanced it, the ring accepts a number the bound refused before
	// and still refuses one past the moved bound.
	r2 := propRing()
	trimmed := fillAndTrim(r2, 3000)
	if trimmed == 0 || put(r2, propData(trimmed+w+1)) || !put(r2, propData(trimmed+w)) {
		t.Fatalf("trimmed=%d: the bound must move with the trimmed prefix", trimmed)
	}
}

// TestDeliveriesAreTheLogsOwnSlots drives three rings, each receiving
// the visits' broadcasts as batches and, for one ring, one message at a
// time: every delivery handed out by OnToken, OnDataBatch and OnData must
// be the log's own slot for its sequence number — a reference, never a
// copy — and the deliveries must run contiguously in total order.
func TestDeliveriesAreTheLogsOwnSlots(t *testing.T) {
	h := newHarness(t, "p", "q", "r")
	next := map[model.ProcessID]uint64{}
	check := func(id model.ProcessID, es []*seqlog.Entry) {
		t.Helper()
		r := h.rings[id]
		for _, e := range es {
			if got := r.log.Get(e.Seq); got != e {
				t.Fatalf("%s: delivery of seq %d is %p, the log's slot is %p", id, e.Seq, e, got)
			}
			if next[id]++; e.Seq != next[id] {
				t.Fatalf("%s: delivered seq %d, want %d", id, e.Seq, next[id])
			}
		}
	}
	batches := 0
	for rot := 0; rot < 40; rot++ {
		h.submit("p", 5, model.Agreed)
		h.submit("q", 3, model.Safe)
		h.submit("r", 2, model.Agreed)
		for range h.order {
			id := h.order[h.holder]
			res := h.rings[id].OnToken(h.token)
			if !res.Accepted {
				t.Fatalf("%s rejected token %v", id, h.token)
			}
			check(id, res.Deliveries)
			for _, to := range h.order {
				switch {
				case to == id:
				case to == "r":
					for _, d := range res.Broadcasts {
						check(to, h.rings[to].OnData(d))
					}
				default:
					dels, _ := h.rings[to].OnDataBatch(res.Broadcasts)
					check(to, dels)
					batches += len(dels)
				}
			}
			h.token = res.Forward
			h.holder = (h.holder + 1) % len(h.order)
		}
	}
	for _, id := range h.order {
		if next[id] < 300 {
			t.Fatalf("%s delivered %d messages; the run must deliver most of its 400", id, next[id])
		}
	}
	if batches == 0 {
		t.Fatal("no delivery came out of OnDataBatch")
	}
}
