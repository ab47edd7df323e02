// Package evs implements the extended virtual synchrony recovery algorithm,
// Steps 2-6 of Section 3 of the paper. It is the paper's primary
// contribution: the machinery that, at each membership change, delivers the
// remaining messages of the prior regular configuration consistently across
// every process that survives into the new configuration, using transitional
// configurations and obligation sets.
//
// One Recovery value drives one attempt at installing one proposed new
// regular configuration. The node creates it when the membership algorithm
// forms a ring, feeds it received Exchange, rebroadcast Data and
// RecoveryDone messages, and applies the Result when the recovery finishes.
// If a further membership change interrupts the attempt, the node discards
// the Recovery — carrying forward the merged message log and the obligation
// set, exactly as the paper requires — and restarts at Step 2.
//
// The message log is the old ring's own seqlog.Log, handed over when the
// ring stops: the recovery reads its receipt claims from the window in
// sequence order, merges rebroadcasts into it, and hands the same log on
// to the next attempt or back to the node. Nothing is copied: the Step 6
// deliveries are the log's own slots.
//
// Failure atomicity (Specification 4) rests on every transitional member
// computing Step 6 from identical inputs. To that end each process freezes
// its Exchange message when the attempt starts and resends it verbatim on
// retries, so the union of exchanged receipt claims — the "needed set" — is
// the same at every member; messages that surface later (stragglers from
// the operational phase) are admitted only if they fall inside the needed
// set, and are otherwise dropped as if lost by the network a moment
// earlier.
package evs

import (
	"slices"
	"sort"

	"repro/internal/model"
	"repro/internal/seqlog"
	"repro/internal/totem"
	"repro/internal/wire"
)

// Action is the sealed union of recovery outputs.
type Action interface{ isAction() }

// Send instructs the node to broadcast a message.
type Send struct{ Msg wire.Message }

func (Send) isAction() {}

// Finished carries the computed Step 6 outcome; it is always the last
// action of a recovery.
type Finished struct{ Result Result }

func (Finished) isAction() {}

// Result is the Step 6 outcome, applied atomically by the node: deliver
// OldRegular in the old regular configuration, deliver the configuration
// change initiating Transitional, deliver Trans in it, then deliver the
// configuration change installing the new regular configuration (with empty
// obligations, per Step 1). OldRegular and Trans are slots of the recovery's
// log, whose ring is the old regular configuration: they stay valid until
// the node installs the new configuration and drops the log.
type Result struct {
	// Transitional is the transitional configuration: the members of
	// the new regular configuration whose previous regular
	// configuration matches this process's (Step 4.a). Its ID is zero
	// when this process had no prior regular configuration (a fresh
	// process), in which case no transitional configuration change is
	// delivered.
	Transitional model.Configuration
	// OldRegular are messages delivered in the old regular
	// configuration (Step 6.b), in total order.
	OldRegular []*seqlog.Entry
	// Trans are messages delivered in the transitional configuration
	// (Step 6.d), in total order.
	Trans []*seqlog.Entry
	// Discarded are sequence numbers discarded by Step 6.a: messages
	// following the first unavailable message whose senders are outside
	// the obligation set.
	Discarded []uint64
	// SafeBound and HighestSeen are the final knowledge about the old
	// configuration, retained in case this process ever needs them
	// again (diagnostics; the old configuration is closed after 6.e).
	SafeBound   uint64
	HighestSeen uint64
}

// Recovery is one attempt of the recovery algorithm at one process.
type Recovery struct {
	self    model.ProcessID
	newRing model.Configuration
	oldRing model.Configuration // zero ID for a fresh process

	// log is the receipt state for the old configuration, merged across
	// restarts; owned by the caller. Its Base is the old ring's discarded
	// prefix: sequence numbers at or below it were delivered locally and
	// certified safe (received by every old-ring member), so this process
	// holds them in the formal sense without the log being able to
	// produce them. Receipt claims and the Step 5 completion check treat
	// the prefix as present.
	log           *seqlog.Log
	deliveredUpTo uint64
	safeBound     uint64
	highestSeen   uint64
	obligations   model.ProcessSet

	frozen    wire.Exchange // this process's exchange, fixed per attempt
	exchanges map[model.ProcessID]wire.Exchange
	buffered  []wire.Data // old-ring data received before the plan exists
	done      map[model.ProcessID]bool
	sentDone  bool
	finished  bool

	// planned, trans and the needed set are computed once when exchanges
	// from every member of the new configuration have arrived (Step 4).
	// The needed set is every sequence number in 1..neededAru plus
	// neededHave (sorted, each above neededAru): its size follows the
	// exchanged claims above the watermarks, not the configuration's age.
	planned    bool
	trans      model.ProcessSet
	neededAru  uint64
	neededHave []uint64
}

// New begins a recovery attempt. log is owned by the caller but mutated by
// the recovery (rebroadcasts merge into it); its Base is the old ring's
// trimmed prefix. state carries the caller's delivery and safety
// watermarks for oldRing (its MyAru, Have and Trimmed are ignored: the log
// is their one source); obligations is the obligation set carried in from
// stable storage or a previous interrupted attempt; seen is the caller's
// highest-observed sender sequence per originator, copied into the frozen
// exchange as counter-healing evidence for peers.
func New(
	self model.ProcessID,
	newRing, oldRing model.Configuration,
	state totem.State,
	log *seqlog.Log,
	obligations model.ProcessSet,
	seen map[model.ProcessID]uint64,
) *Recovery {
	if log == nil {
		log = &seqlog.Log{}
	}
	r := &Recovery{
		self:          self,
		newRing:       newRing,
		oldRing:       oldRing,
		log:           log,
		deliveredUpTo: state.DeliveredUpTo,
		safeBound:     state.SafeBound,
		highestSeen:   state.HighestSeen,
		obligations:   obligations,
		exchanges:     make(map[model.ProcessID]wire.Exchange),
		done:          make(map[model.ProcessID]bool),
	}
	// One in-order walk of the window yields the receipt claims: MyAru is
	// contiguous from the trimmed prefix, Have is every entry above it,
	// already sorted. The highest present entry is the last of those.
	aru := log.Base()
	for log.Get(aru+1) != nil {
		aru++
	}
	var have []uint64
	for seq := aru + 1; seq <= log.High(); seq++ {
		if log.Get(seq) != nil {
			have = append(have, seq)
		}
	}
	top := aru
	if n := len(have); n > 0 {
		top = have[n-1]
	}
	if top > log.Base() && top > r.highestSeen {
		r.highestSeen = top
	}
	r.frozen = wire.Exchange{
		Ring:          newRing.ID,
		Sender:        self,
		OldRing:       oldRing.ID,
		OldMembers:    oldRing.Members.Members(),
		MyAru:         aru,
		Have:          have,
		SafeBound:     state.SafeBound,
		HighestSeen:   r.highestSeen,
		DeliveredUpTo: state.DeliveredUpTo,
		Obligations:   obligations.Members(),
		SeenSeqs:      seenSlice(seen),
	}
	return r
}

// seenSlice renders a seen-sequence map as the canonical sorted wire
// form. The result is freshly allocated: the exchange must never alias
// the caller's live map.
func seenSlice(seen map[model.ProcessID]uint64) []wire.SeenSeq {
	if len(seen) == 0 {
		return nil
	}
	out := make([]wire.SeenSeq, 0, len(seen))
	for p, v := range seen {
		out = append(out, wire.SeenSeq{Proc: p, Seq: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Proc < out[j].Proc })
	return out
}

// SeenSeqs merges the highest-observed sender sequences across every
// exchange received this attempt (including this process's own): the
// counter-healing evidence of the self-stabilization fault model. The
// caller adopts the per-originator maxima when the configuration is
// installed.
func (r *Recovery) SeenSeqs() map[model.ProcessID]uint64 {
	out := make(map[model.ProcessID]uint64)
	merge := func(ss []wire.SeenSeq) {
		for _, s := range ss {
			if s.Seq > out[s.Proc] {
				out[s.Proc] = s.Seq
			}
		}
	}
	merge(r.frozen.SeenSeqs)
	for _, e := range r.exchanges {
		merge(e.SeenSeqs)
	}
	return out
}

// Obligations returns the current obligation set, persisted by the node if
// the attempt is interrupted (Step 5.c obligations survive restarts).
func (r *Recovery) Obligations() model.ProcessSet { return r.obligations }

// Log returns the merged message log: the caller's log, extended.
func (r *Recovery) Log() *seqlog.Log { return r.log }

// Watermarks returns the delivery/safety watermarks, carried into a
// restart and persisted (State.MyAru and State.Have are left empty: the
// log holds them).
func (r *Recovery) Watermarks() totem.State {
	return totem.State{
		SafeBound:     r.safeBound,
		HighestSeen:   r.highestSeen,
		DeliveredUpTo: r.deliveredUpTo,
		Trimmed:       r.log.Base(),
	}
}

// Finished reports whether the Step 6 result has been emitted.
func (r *Recovery) Finished() bool { return r.finished }

// Transitional returns the transitional member set (empty before Step 4).
func (r *Recovery) Transitional() model.ProcessSet { return r.trans }

// Planned reports whether Step 4 has computed the rebroadcast plan (every
// member's exchange has arrived).
func (r *Recovery) Planned() bool { return r.planned }

// SentDone reports whether this process has announced Step 5 completion.
func (r *Recovery) SentDone() bool { return r.sentDone }

// NeededCount returns the size of the needed set (zero before Step 4).
func (r *Recovery) NeededCount() int { return int(r.neededAru) + len(r.neededHave) }

// Start emits this process's Exchange broadcast (Step 3).
func (r *Recovery) Start() []Action {
	return []Action{Send{Msg: r.frozen}}
}

// OnExchange ingests a peer's Exchange (Step 3). When exchanges from every
// member of the proposed configuration have arrived, the transitional
// configuration and the rebroadcast plan are computed (Step 4) and initial
// rebroadcasts are emitted (Step 5.a).
func (r *Recovery) OnExchange(e wire.Exchange) []Action {
	if r.finished || e.Ring != r.newRing.ID || !r.newRing.Members.Contains(e.Sender) {
		return nil
	}
	if _, seen := r.exchanges[e.Sender]; seen {
		return r.step()
	}
	r.exchanges[e.Sender] = e
	if e.OldRing == r.oldRing.ID {
		if e.SafeBound > r.safeBound {
			r.safeBound = e.SafeBound
		}
		if e.HighestSeen > r.highestSeen {
			r.highestSeen = e.HighestSeen
		}
	}
	return r.step()
}

// OnData ingests a data message of the old configuration: a Step 5.a
// rebroadcast, or a straggler from the operational phase. Messages outside
// the agreed needed set are dropped to keep Step 6 inputs identical across
// the transitional configuration.
func (r *Recovery) OnData(d wire.Data) []Action {
	if r.finished || d.Ring != r.oldRing.ID || d.Seq == 0 {
		return nil
	}
	if !r.planned {
		r.buffered = append(r.buffered, d)
		return nil
	}
	r.admit(d)
	return r.step()
}

// admit merges one data message into the log if the plan allows it. A
// sequence number in the trimmed prefix, already held, or beyond the
// log's limit is not stored (the last cannot be needed on a conforming
// schedule: every needed number was assigned in the old ring, which kept
// its own receipts inside this same window).
func (r *Recovery) admit(d wire.Data) {
	if !r.needed(d.Seq) {
		return
	}
	if e, fresh := r.log.Put(d.Seq); fresh {
		e.Set(&d)
	}
}

// OnDone ingests a peer's announcement that it holds every needed message
// (Step 5.b).
func (r *Recovery) OnDone(d wire.RecoveryDone) []Action {
	if r.finished || d.Ring != r.newRing.ID || d.OldRing != r.oldRing.ID {
		return nil
	}
	if !r.newRing.Members.Contains(d.Sender) {
		return nil
	}
	r.done[d.Sender] = true
	return r.step()
}

// OnRetry handles the recovery retry timer: the frozen exchange, the done
// announcement and unsatisfied rebroadcasts are re-sent to mask message
// loss.
func (r *Recovery) OnRetry() []Action {
	if r.finished {
		return nil
	}
	out := []Action{Send{Msg: r.frozen}}
	if r.sentDone {
		out = append(out, Send{Msg: wire.RecoveryDone{
			Ring: r.newRing.ID, Sender: r.self, OldRing: r.oldRing.ID,
		}})
	}
	if r.planned {
		out = append(out, r.rebroadcasts(true)...)
	}
	return append(out, r.step()...)
}

// step advances the algorithm as far as current knowledge allows.
func (r *Recovery) step() []Action {
	if r.finished {
		return nil
	}
	var out []Action
	if !r.planned {
		// Step 4 needs exchanges from every member of the proposed
		// configuration: the transitional configuration is defined
		// over all members' previous regular configurations.
		for _, q := range r.newRing.Members.View() {
			if _, ok := r.exchanges[q]; !ok {
				return nil
			}
		}
		r.computePlan()
		for _, d := range r.buffered {
			r.admit(d)
		}
		r.buffered = nil
		out = append(out, r.rebroadcasts(false)...)
	}

	if !r.sentDone && r.holdsAllNeeded() {
		// Step 5.c: on acknowledging receipt of all rebroadcast
		// messages, extend the obligation set with the transitional
		// members and their obligation sets.
		r.sentDone = true
		r.done[r.self] = true
		r.obligations = r.obligations.Union(r.trans)
		for _, q := range r.trans.View() {
			r.obligations = r.obligations.Union(
				model.NewProcessSet(r.exchanges[q].Obligations...))
		}
		out = append(out, Send{Msg: wire.RecoveryDone{
			Ring: r.newRing.ID, Sender: r.self, OldRing: r.oldRing.ID,
		}})
	}

	if r.sentDone && r.allDone() {
		res := r.computeResult()
		r.finished = true
		out = append(out, Finished{Result: res})
	}
	return out
}

// computePlan performs Step 4.a — the transitional configuration members
// are the members of the new regular configuration whose previous regular
// configuration equals this process's — and Step 4.b — the needed set: the
// sequence numbers held, per the frozen exchanges, by anyone in the
// transitional configuration.
func (r *Recovery) computePlan() {
	ids := []model.ProcessID{r.self}
	for q, e := range r.exchanges {
		if e.OldRing == r.oldRing.ID {
			ids = append(ids, q)
		}
	}
	r.trans = model.NewProcessSet(ids...)

	members := r.trans.Members()
	for _, q := range members {
		e := r.exchanges[q]
		r.neededAru = max(r.neededAru, e.MyAru)
		r.highestSeen = max(r.highestSeen, e.HighestSeen)
	}
	for _, q := range members {
		for _, seq := range r.exchanges[q].Have {
			if seq > r.neededAru {
				r.neededHave = append(r.neededHave, seq)
			}
		}
	}
	slices.Sort(r.neededHave)
	r.neededHave = slices.Compact(r.neededHave)
	r.highestSeen = max(r.highestSeen, r.neededHigh())
	r.planned = true
}

// needed reports whether seq is in the needed set.
func (r *Recovery) needed(seq uint64) bool {
	if seq > 0 && seq <= r.neededAru {
		return true
	}
	_, found := slices.BinarySearch(r.neededHave, seq)
	return found
}

// neededHigh returns the highest needed sequence number (zero when the
// set is empty). Every needed number the log can hold lies in
// (Base, neededHigh]; the trimmed prefix holds none.
func (r *Recovery) neededHigh() uint64 {
	if n := len(r.neededHave); n > 0 {
		return r.neededHave[n-1]
	}
	return r.neededAru
}

// rebroadcasts returns the Step 5.a rebroadcast messages this process is
// responsible for: for each needed message missing at some transitional
// member, the lowest-ordered holder rebroadcasts. With force, this process
// rebroadcasts every message some not-yet-done member is missing (retry
// path).
func (r *Recovery) rebroadcasts(force bool) []Action {
	var out []Action
	for seq := r.log.Base() + 1; seq <= r.neededHigh(); seq++ {
		e := r.log.Get(seq)
		if e == nil || !r.needed(seq) {
			continue
		}
		neededBy := false
		for _, q := range r.trans.View() {
			if q == r.self {
				continue
			}
			if !holdsSeq(r.exchanges[q], seq) && !r.done[q] {
				neededBy = true
				break
			}
		}
		if !neededBy {
			continue
		}
		if !force {
			// Deterministic responsibility: the lowest-ordered
			// member that claimed the message in its exchange.
			// Every needed sequence number has at least one
			// claimer, since the needed set is the union of the
			// exchanged claims.
			var lowest model.ProcessID
			for _, q := range r.trans.View() {
				if holdsSeq(r.exchanges[q], seq) {
					lowest = q
					break
				}
			}
			if lowest != r.self {
				continue
			}
		}
		d := e.Data(r.oldRing.ID)
		d.Retrans = true
		out = append(out, Send{Msg: d})
	}
	return out
}

// holdsSeq reports whether an exchange claims receipt of seq.
func holdsSeq(e wire.Exchange, seq uint64) bool {
	if seq > 0 && seq <= e.MyAru {
		return true
	}
	for _, s := range e.Have {
		if s == seq {
			return true
		}
	}
	return false
}

// holdsAllNeeded reports whether this process holds every needed message.
// The trimmed prefix counts as held: it was delivered locally and certified
// received by every old-ring member before being discarded.
func (r *Recovery) holdsAllNeeded() bool {
	if !r.planned {
		return false
	}
	for seq := r.log.Base() + 1; seq <= r.neededHigh(); seq++ {
		if r.log.Get(seq) == nil && r.needed(seq) {
			return false
		}
	}
	return true
}

// allDone reports whether every transitional member announced completion.
func (r *Recovery) allDone() bool {
	for _, q := range r.trans.View() {
		if !r.done[q] {
			return false
		}
	}
	return true
}

// computeResult performs Step 6 (excluding the actual deliveries, which the
// node applies atomically):
//
//	6.a discard messages following the first unavailable message unless
//	    sent by an obligation-set member (which includes the transitional
//	    members);
//	6.b deliver, in the old regular configuration, messages up to but not
//	    including the first hole or the first safe message not known
//	    received by every member of the old configuration;
//	6.d deliver, in the transitional configuration, the remaining
//	    messages in order, skipping post-hole messages from outside the
//	    obligation set.
func (r *Recovery) computeResult() Result {
	res := Result{
		SafeBound:   r.safeBound,
		HighestSeen: r.highestSeen,
	}
	if !r.oldRing.ID.IsZero() {
		res.Transitional = model.Configuration{
			ID:      model.TransitionalID(r.newRing.ID, r.oldRing.ID),
			Members: r.trans,
		}
	}

	// 6.b: regular deliveries, from this process's own watermark up to
	// the common stopping point. The watermark is at or above the
	// trimmed prefix by construction (trimming never outruns delivery);
	// the clamp guards against regressed persisted state.
	seq := max(r.deliveredUpTo, r.log.Base())
	for {
		e := r.log.Get(seq + 1)
		if e == nil || !r.needed(seq+1) {
			break
		}
		if e.Service() == model.Safe && e.Seq > r.safeBound {
			break
		}
		seq++
		res.OldRegular = append(res.OldRegular, e)
	}

	// 6.a + 6.d: transitional deliveries up to the highest sequence
	// number known assigned in the old configuration.
	holeSeen := false
	for s := seq + 1; s <= r.highestSeen; s++ {
		e := r.log.Get(s)
		if e == nil || !r.needed(s) {
			holeSeen = true
			continue
		}
		if holeSeen && !r.obligations.Contains(e.ID.Sender) {
			res.Discarded = append(res.Discarded, s)
			continue
		}
		res.Trans = append(res.Trans, e)
	}
	return res
}
