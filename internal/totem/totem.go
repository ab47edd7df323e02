// Package totem implements the operational half of the Totem single-ring
// protocol: token-passing total ordering of broadcast messages within one
// regular configuration, with retransmission, flow control, and the
// aru-based acknowledgment mechanism from which both agreed and safe
// delivery are derived.
//
// A message is delivered in agreed order as soon as every message with a
// smaller sequence number has been delivered. A message is delivered in
// safe order once the process has observed the token's aru ("all received
// up to") at or above the message's sequence number on two successive token
// visits: between those visits the token made a full rotation, and because
// a process only ever forwards the token with an aru no greater than its
// own contiguous-receipt watermark, every ring member must have received
// the message. This is the acknowledgment described in Step 1 of the EVS
// algorithm (Section 3 of the paper).
//
// The receive log is a window indexed by sequence number (the token assigns
// sequence numbers contiguously from 1, so the log is dense; seqlog.Log is
// the type the stable store persists it in as well), with the missing
// numbers tracked as a short list of gap ranges. Receipt, the
// retransmission scan, aru advancement, delivery and trimming are all O(1)
// probes; a token visit is linear only in the work it actually performs.
//
// The Ring type is a pure state machine: it consumes received wire messages
// and emits messages to transmit and messages to deliver. Timers, the
// network, stable storage and the recovery algorithm live in other
// packages.
package totem

import (
	"sort"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/seqlog"
	"repro/internal/wire"
)

// Options tune the ordering protocol. The per-visit budget self-tunes,
// Totem-style: it grows multiplicatively while the ring is loss-free and
// the backlog is budget-limited, and collapses back toward MaxPerToken
// under retransmission pressure.
type Options struct {
	// MaxPerToken is the floor of the self-tuned budget of new messages
	// sequenced per token visit.
	MaxPerToken int
	// Window bounds token.Seq - token.Aru: no new messages are
	// sequenced while more than Window messages are unacknowledged.
	// The effective window also scales with the current budget so a
	// full rotation of sends always fits.
	Window uint64
	// AdaptiveMax caps the self-tuned budget (default 8×MaxPerToken).
	AdaptiveMax int
}

// DefaultOptions returns the tuning used by the test and benchmark
// harnesses.
func DefaultOptions() Options {
	return Options{MaxPerToken: 16, Window: 256, AdaptiveMax: 128}
}

// Pending is an application message awaiting sequencing.
type Pending struct {
	ID      model.MessageID
	Service model.Service
	Payload []byte
}

// TokenResult is everything a token visit produces.
//
// The Broadcasts, Sent and Deliveries slices are per-ring scratch buffers,
// valid only until the next call into the Ring: a caller that hands them to
// anything outliving the visit (an asynchronous transport, a retained
// trace) must copy them first. Deliveries are the receive log's own slots,
// handed over by reference; the ring next stores into or trims its log at
// the next OnData, OnDataBatch or OnToken. The wire.Data elements and the
// payloads are immutable and may be aliased freely.
type TokenResult struct {
	// Accepted is false when the token was stale or for another ring;
	// nothing else is set in that case.
	Accepted bool
	// Broadcasts are data messages to broadcast: retransmissions
	// requested via the token followed by newly sequenced messages.
	// The transport may pack them into a single packet (wire.DataBatch).
	Broadcasts []wire.Data
	// Sent are the newly sequenced messages (a subset of Broadcasts);
	// each is a send event of the formal model.
	Sent []wire.Data
	// Forward is the updated token for the ring successor. The node
	// addresses it to the successor alone where the medium can, and
	// broadcasts it at the representative (the ring's beacon) or on a
	// broadcast-only medium.
	Forward wire.Token
	// Deliveries are messages that became deliverable, in total order:
	// slots of the ring's log, whose ring is Config().ID.
	Deliveries []*seqlog.Entry
}

// seqRange is a closed range [Lo, Hi] of sequence numbers.
type seqRange struct {
	lo, hi uint64
}

// Ring is the per-process ordering state for one regular configuration.
type Ring struct {
	self model.ProcessID
	cfg  model.Configuration
	opts Options

	// log holds the received messages above trimmedUpTo (its base).
	// Sequence numbers are assigned contiguously from 1 by the token, so
	// the log is dense; maybeTrim discards the safe-and-delivered prefix,
	// so live memory is bounded by the flow-control window, not the run
	// length.
	log         seqlog.Log
	trimmedUpTo uint64
	// gaps lists the missing sequence numbers in (myAru, highestSeen]
	// as sorted, disjoint, non-empty ranges.
	gaps          []seqRange
	myAru         uint64 // contiguous receipt watermark
	highestSeen   uint64 // highest sequence number known assigned
	deliveredUpTo uint64
	safeBound     uint64 // two-visit safe watermark
	lastFwdAru    uint64 // aru on the token this process last forwarded
	everForwarded bool
	lastTokenID   uint64
	// pending[pendHead:] is the send queue. A visit pops by advancing
	// pendHead, and Submit slides the queue down over the popped prefix
	// once that prefix is half the array, so a standing backlog reuses one
	// array instead of reallocating it as the queue moves.
	pending  []Pending
	pendHead int
	// prevHigh and prevPrevHigh are highestSeen at the last two token
	// forwards: sequence numbers at or below prevPrevHigh were assigned
	// two full rotations ago, so a message still missing from that range
	// was lost rather than merely overtaken by the token in flight. This
	// is the loss signal the adaptive flow control shrinks on.
	prevHigh, prevPrevHigh uint64

	curMax int // adaptive per-visit sequencing budget

	// Scratch buffers backing TokenResult and collectDeliverable: reused
	// across token visits so a steady-state visit allocates nothing.
	// Contents are valid until the next call into the Ring.
	bcastScratch   []wire.Data
	sentScratch    []wire.Data
	deliverScratch []*seqlog.Entry

	// met is the process's observability scope (nil disables: every obs
	// call is a nil-safe no-op costing one branch and zero allocations).
	met *obs.Metrics
}

// New creates the ordering state for configuration cfg at process self.
// Every ring starts empty: a process recovering from stable storage
// rejoins through the recovery algorithm, never by seeding a ring.
func New(self model.ProcessID, cfg model.Configuration, opts Options) *Ring {
	if opts.MaxPerToken <= 0 {
		opts.MaxPerToken = DefaultOptions().MaxPerToken
	}
	if opts.Window == 0 {
		opts.Window = DefaultOptions().Window
	}
	if opts.AdaptiveMax < opts.MaxPerToken {
		opts.AdaptiveMax = 8 * opts.MaxPerToken
	}
	r := &Ring{
		self:   self,
		cfg:    cfg,
		opts:   opts,
		curMax: opts.MaxPerToken,
	}
	r.log.Limit = r.logWindow()
	return r
}

// SetMetrics attaches the process's observability scope (nil disables).
func (r *Ring) SetMetrics(m *obs.Metrics) { r.met = m }

// Config returns the ring's configuration.
func (r *Ring) Config() model.Configuration { return r.cfg }

// IsRepresentative reports whether self is the lowest-ordered member, the
// process that originates the first token.
func (r *Ring) IsRepresentative() bool {
	min, ok := r.cfg.Members.Min()
	return ok && min == r.self
}

// InitialToken returns the first token of the ring, originated by the
// representative.
func (r *Ring) InitialToken() wire.Token {
	return wire.Token{Ring: r.cfg.ID, TokenID: 1}
}

// Submit queues an application message for sequencing at the next token
// visit.
func (r *Ring) Submit(p Pending) {
	if r.pendHead > 0 && 2*r.pendHead >= cap(r.pending) && len(r.pending) == cap(r.pending) {
		// Full, and at least half of it popped: slide the backlog down
		// instead of growing. Each slide copies no more than it frees.
		n := copy(r.pending, r.pending[r.pendHead:])
		clear(r.pending[n:])
		r.pending = r.pending[:n]
		r.pendHead = 0
	}
	r.pending = append(r.pending, p)
}

// PendingCount returns the number of queued, not-yet-sequenced messages.
func (r *Ring) PendingCount() int { return len(r.pending) - r.pendHead }

// TakePending removes and returns all queued messages; the EVS recovery
// algorithm carries them into the next regular configuration, where they
// are sequenced (and thus, in the formal model's terms, sent).
func (r *Ring) TakePending() []Pending {
	p := r.pending[r.pendHead:]
	r.pending, r.pendHead = nil, 0
	return p
}

// present reports whether the message with the given sequence number is in
// the log (trimmed entries are no longer present).
func (r *Ring) present(seq uint64) bool { return r.log.Get(seq) != nil }

// trimChunk is the laziness threshold of maybeTrim: entries are discarded
// in batches, so small test rings keep their full logs and the trimmed
// watermark (persisted, and exchanged during recovery) moves once per
// chunk rather than once per visit.
const trimChunk = 1024

// retainCushion is how far the trim bound stays behind the certified
// safe-and-delivered watermark: twice the flow-control window. The safe
// certificate proves every member *received* the prefix, but a member that
// crashes may have *delivered* less — its delivery watermark lags the
// certified bound by at most the in-flight window plus one rotation of
// assignments, both bounded by the flow-control window. Keeping two
// windows' worth of entries below the bound therefore guarantees that any
// entry a recovering member could still need to deliver (even one it lost
// to detected storage rot) survives at its peers.
func (r *Ring) retainCushion() uint64 {
	win := r.opts.Window
	if grown := 2 * uint64(r.cfg.Members.Size()) * uint64(r.opts.AdaptiveMax); grown > win {
		win = grown
	}
	return 2 * win
}

// logWindow bounds highestSeen − trimmedUpTo; a message further ahead is
// refused like a lost packet (and retransmitted once the window reaches
// it) instead of sizing the log. Sequencing stops a flow window above the
// token's aru, the safe bound trails that aru by at most two rotations of
// assignments, and the trim bound trails the safe bound by the retention
// cushion plus one chunk: under three cushions in all, so four (eight flow
// windows) is never reached by a conforming ring.
func (r *Ring) logWindow() uint64 { return 4*r.retainCushion() + trimChunk }

// maybeTrim discards the log prefix that can never be needed again:
// sequence numbers a retention cushion below both the two-visit safe bound
// (certified received by every ring member, so neither an operational
// retransmission nor a recovery rebroadcast can name them — every member's
// own receipt watermark is at or above the bound) and the delivery
// watermark (never re-delivered locally). Only the dropped slots are
// touched, so steady state holds a flow-window of entries regardless of
// how long the ring runs.
func (r *Ring) maybeTrim() {
	bound := r.safeBound
	if r.deliveredUpTo < bound {
		bound = r.deliveredUpTo
	}
	if cushion := r.retainCushion(); bound > cushion {
		bound -= cushion
	} else {
		return
	}
	if bound <= r.trimmedUpTo || bound-r.trimmedUpTo < trimChunk {
		return
	}
	r.log.DropPrefix(bound)
	r.trimmedUpTo = bound
}

// noteAssigned records that every sequence number up to h has been
// assigned; numbers above the previous highestSeen become (part of) the
// trailing gap until their messages arrive.
func (r *Ring) noteAssigned(h uint64) {
	if h <= r.highestSeen {
		return
	}
	lo := r.highestSeen + 1
	if n := len(r.gaps); n > 0 && r.gaps[n-1].hi+1 == lo {
		r.gaps[n-1].hi = h
	} else {
		r.gaps = append(r.gaps, seqRange{lo, h})
	}
	r.highestSeen = h
}

// fillGap removes seq from the gap list.
func (r *Ring) fillGap(seq uint64) {
	i := sort.Search(len(r.gaps), func(i int) bool { return r.gaps[i].hi >= seq })
	if i == len(r.gaps) || r.gaps[i].lo > seq {
		return
	}
	g := r.gaps[i]
	switch {
	case g.lo == seq && g.hi == seq:
		r.gaps = append(r.gaps[:i], r.gaps[i+1:]...)
	case g.lo == seq:
		r.gaps[i].lo = seq + 1
	case g.hi == seq:
		r.gaps[i].hi = seq - 1
	default:
		r.gaps = append(r.gaps, seqRange{})
		copy(r.gaps[i+1:], r.gaps[i:])
		r.gaps[i] = seqRange{g.lo, seq - 1}
		r.gaps[i+1] = seqRange{seq + 1, g.hi}
	}
}

// advanceAru derives the contiguous receipt watermark from the gap list.
func (r *Ring) advanceAru() {
	if len(r.gaps) > 0 {
		r.myAru = r.gaps[0].lo - 1
	} else {
		r.myAru = r.highestSeen
	}
}

// put inserts a received message into the log, maintaining the gap list
// and watermarks. It reports whether the message was new.
//
//evs:noalloc
func (r *Ring) put(d *wire.Data) bool {
	seq := d.Seq
	e, fresh := r.log.Put(seq)
	if !fresh {
		return false // trimmed, beyond the log window, or a duplicate
	}
	e.Set(d)
	switch {
	case seq == r.highestSeen+1:
		r.highestSeen = seq
	case seq > r.highestSeen:
		r.noteAssigned(seq - 1)
		r.highestSeen = seq
	default:
		r.fillGap(seq)
	}
	r.advanceAru()
	return true
}

// OnData ingests a received data message for this ring and returns any
// messages that become deliverable, in total order, as slots of the log.
// The returned slice is per-ring scratch, valid until the next call into
// the Ring.
//
//evs:arena
//evs:noalloc
func (r *Ring) OnData(d wire.Data) []*seqlog.Entry {
	if d.Ring != r.cfg.ID || d.Seq == 0 {
		return nil
	}
	if !r.put(&d) {
		return nil
	}
	return r.collectDeliverable()
}

// OnDataBatch ingests every element of a received batch in one pass and
// returns the messages that became deliverable, in total order and as
// slots of the log, plus the highest sequence number that was new to the
// log (0 when none was): one delivery scan per packet instead of one per
// message. Every element must belong to this ring: the caller tests a
// wire.DataBatch's Ring once, which vouches for all its elements. The
// returned slice is per-ring scratch, valid until the next call into the
// Ring.
//
//evs:arena
//evs:noalloc
func (r *Ring) OnDataBatch(ds []wire.Data) (deliveries []*seqlog.Entry, highest uint64) {
	for i := range ds {
		d := &ds[i]
		if d.Seq != 0 && r.put(d) {
			highest = max(highest, d.Seq)
		}
	}
	if highest == 0 {
		return nil, 0
	}
	return r.collectDeliverable(), highest
}

// budget returns the effective per-visit sequencing budget and flow
// window, shrinking the adaptive budget under retransmission pressure.
//
//evs:noalloc
func (r *Ring) budget(pressure bool) (int, uint64) {
	if pressure {
		half := r.curMax / 2
		if half < r.opts.MaxPerToken {
			half = r.opts.MaxPerToken
		}
		if half != r.curMax {
			r.curMax = half
			r.met.Inc(obs.CBudgetShrinks)
			r.met.Event(obs.KBudget, uint64(r.curMax), 0)
		}
	}
	win := r.opts.Window
	if grown := 2 * uint64(r.cfg.Members.Size()) * uint64(r.curMax); grown > win {
		win = grown
	}
	return r.curMax, win
}

// growBudget raises the adaptive budget multiplicatively toward the cap.
//
//evs:noalloc
func (r *Ring) growBudget() {
	g := r.curMax + r.curMax/2
	if g <= r.curMax {
		g = r.curMax + 1
	}
	if g > r.opts.AdaptiveMax {
		g = r.opts.AdaptiveMax
	}
	if g != r.curMax {
		r.curMax = g
		r.met.Inc(obs.CBudgetGrows)
		r.met.Event(obs.KBudget, uint64(r.curMax), 0)
	}
}

// OnToken processes a token visit: it satisfies retransmission requests,
// sequences pending messages, updates the aru and the safe watermark,
// collects deliverable messages, and produces the token to forward.
//
//evs:arena
//evs:noalloc
func (r *Ring) OnToken(t wire.Token) TokenResult {
	if t.Ring != r.cfg.ID || t.TokenID <= r.lastTokenID {
		r.met.Inc(obs.CTokenStale)
		return TokenResult{}
	}
	r.lastTokenID = t.TokenID
	r.met.Inc(obs.CTokenRotations)
	res := TokenResult{
		Accepted:   true,
		Broadcasts: r.bcastScratch[:0],
		Sent:       r.sentScratch[:0],
	}

	r.noteAssigned(t.Seq)

	// Retransmission pressure collapses the adaptive budget (see
	// budget). Freshly assigned messages are routinely still in flight
	// when the token arrives — the token and the data leave a sender at
	// the same instant on independently delayed packets — so only
	// messages missing (here or at a requester) two visits after
	// assignment count as lost.
	pressure := (len(t.Rtr) > 0 && t.Rtr[0].Lo <= r.prevPrevHigh) ||
		(len(r.gaps) > 0 && r.gaps[0].lo <= r.prevPrevHigh)
	maxPer, win := r.budget(pressure)
	r.met.Observe(obs.HBudgetPerVisit, uint64(maxPer))
	r.met.Set(obs.GBudget, int64(maxPer))
	r.met.Set(obs.GWindow, int64(win))

	// Retransmit requested messages this process holds. Requests it
	// cannot satisfy name messages it is itself missing (they are ≤
	// token.Seq, so they are in the gap list) and are re-issued below.
	for _, g := range t.Rtr {
		for seq := g.Lo; seq <= g.Hi; seq++ {
			if e := r.log.Get(seq); e != nil {
				res.Broadcasts = append(res.Broadcasts, e.Data(r.cfg.ID))
				res.Broadcasts[len(res.Broadcasts)-1].Retrans = true
				r.met.Inc(obs.CRetransServed)
			}
		}
	}

	// Sequence new messages within the flow-control window.
	for r.pendHead < len(r.pending) && len(res.Sent) < maxPer && t.Seq-t.Aru < win {
		p := r.pending[r.pendHead]
		r.pending[r.pendHead] = Pending{}
		r.pendHead++
		t.Seq++
		d := wire.Data{
			ID:      p.ID,
			Ring:    r.cfg.ID,
			Seq:     t.Seq,
			Service: p.Service,
			Payload: p.Payload, //lint:allow wireown Submit transfers payload ownership to the ring; the pending slot is dropped as the message is sequenced
		}
		r.put(&d)
		res.Sent = append(res.Sent, d)
		res.Broadcasts = append(res.Broadcasts, d)
	}
	if r.pendHead == len(r.pending) {
		r.pending, r.pendHead = r.pending[:0], 0
	}
	if !pressure && r.PendingCount() > 0 &&
		len(res.Sent) == maxPer && t.Seq-t.Aru < win {
		// Loss-free and budget-limited with window headroom: grow.
		r.growBudget()
	}

	// Request retransmission of messages this process is missing: the
	// gap list is exactly the sorted, disjoint request-range list (it
	// subsumes any unsatisfied incoming requests), so the wire form is a
	// straight copy — a visit with a large hole costs two words, not one
	// per missing message. The copy is fresh because the token outlives
	// the visit on the wire (wireown: no aliasing of ring state).
	t.Rtr = nil
	if len(r.gaps) > 0 {
		rtr := make([]wire.SeqRange, len(r.gaps))
		n := uint64(0)
		for i, g := range r.gaps {
			rtr[i] = wire.SeqRange{Lo: g.lo, Hi: g.hi}
			n += g.hi - g.lo + 1
		}
		t.Rtr = rtr
		r.met.Add(obs.CRetransRequested, n)
	}

	// Two-visit safe watermark: messages acknowledged on both the
	// previously forwarded token and the incoming token are stable at
	// every member.
	if r.everForwarded {
		bound := t.Aru
		if r.lastFwdAru < bound {
			bound = r.lastFwdAru
		}
		if bound > r.safeBound {
			r.safeBound = bound
		}
	}

	// Aru update: lower to our watermark if we are missing messages;
	// raise if we set it previously (or it is unowned and current).
	switch {
	case r.myAru < t.Aru:
		t.Aru = r.myAru
		t.AruID = r.self
	case t.AruID == r.self || t.AruID == "":
		t.Aru = r.myAru
		t.AruID = ""
		if r.myAru < t.Seq {
			t.AruID = r.self
		}
	}

	r.met.Add(obs.CMsgsSequenced, uint64(len(res.Sent)))
	res.Deliveries = r.collectDeliverable()

	t.TokenID++
	r.lastFwdAru = t.Aru
	r.everForwarded = true
	r.prevPrevHigh = r.prevHigh
	r.prevHigh = r.highestSeen
	res.Forward = t
	r.bcastScratch = res.Broadcasts
	r.sentScratch = res.Sent
	// The trim stays a retention cushion (two flow windows) below the
	// delivery watermark, more than one visit ever delivers, so it zeroes
	// none of the slots in res.Deliveries.
	r.maybeTrim()
	return res
}

// collectDeliverable returns, in order, received messages past the delivery
// watermark, stopping at a gap or at a safe-service message that is not yet
// safe. A blocked safe message blocks everything behind it: delivery is in
// total order. The returned slice is per-ring scratch holding the log's
// own slots, valid until the next call into the Ring.
//
//evs:arena
//evs:noalloc
func (r *Ring) collectDeliverable() []*seqlog.Entry {
	out := r.deliverScratch[:0]
	for {
		e := r.log.Get(r.deliveredUpTo + 1)
		if e == nil || (e.Service() == model.Safe && e.Seq > r.safeBound) {
			break
		}
		r.deliveredUpTo++
		out = append(out, e)
	}
	r.met.Add(obs.CMsgsDelivered, uint64(len(out)))
	r.deliverScratch = out
	return out
}

// State is the ring's receipt and delivery state, exchanged during recovery
// (Step 3) and persisted to stable storage.
type State struct {
	MyAru         uint64
	Have          []uint64 // received sequence numbers above MyAru
	SafeBound     uint64
	HighestSeen   uint64
	DeliveredUpTo uint64
	// Trimmed is the discarded log prefix: sequence numbers at or below
	// it were delivered locally and certified safe (received by every
	// member), so the recovery algorithm treats them as held without
	// requiring the log to produce them.
	Trimmed uint64
}

// Snapshot returns the ring's exchange state. Have is derived from the
// complement of the gap list within (myAru, highestSeen] — the gap list is
// exactly the missing set, so the received numbers are the runs between
// consecutive gaps — costing O(gaps + |Have|) rather than a presence probe
// per sequence number in the range.
func (r *Ring) Snapshot() State {
	var have []uint64
	for i, g := range r.gaps {
		lo := g.hi + 1
		hi := r.highestSeen
		if i+1 < len(r.gaps) {
			hi = r.gaps[i+1].lo - 1
		}
		for seq := lo; seq <= hi; seq++ {
			have = append(have, seq)
		}
	}
	st := r.Watermarks()
	st.Have = have
	return st
}

// Watermarks returns the receipt and delivery watermarks without scanning
// the receive log (State.Have is left empty).
func (r *Ring) Watermarks() State {
	return State{
		MyAru:         r.myAru,
		SafeBound:     r.safeBound,
		HighestSeen:   r.highestSeen,
		DeliveredUpTo: r.deliveredUpTo,
		Trimmed:       r.trimmedUpTo,
	}
}

// Len returns the number of messages in the receive log (trimmed entries
// excluded).
func (r *Ring) Len() int { return r.log.Len() }

// Trimmed returns the discarded log prefix watermark.
func (r *Ring) Trimmed() uint64 { return r.trimmedUpTo }

// Log returns the receive log itself, not a copy. At a configuration
// change the node hands it to the recovery algorithm, which reads and
// extends it; the ring is done by then.
func (r *Ring) Log() *seqlog.Log { return &r.log }

// DeliveredUpTo returns the delivery watermark.
func (r *Ring) DeliveredUpTo() uint64 { return r.deliveredUpTo }

// SafeBound returns the current two-visit safe watermark.
func (r *Ring) SafeBound() uint64 { return r.safeBound }
