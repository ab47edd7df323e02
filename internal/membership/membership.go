// Package membership implements the low-level membership algorithm beneath
// the EVS recovery algorithm: agreement, within each network component, on
// the membership and identifier of the next regular configuration.
//
// The algorithm is a gather/commit consensus in the style of the Totem and
// Transis membership protocols:
//
//   - Gather: every reconfiguring process broadcasts a Join carrying the set
//     of processes it has heard from this round (Alive), the set it has
//     given up on (Failed), and the highest ring sequence number it knows.
//     Consensus is reached when every process in the candidate set
//     Alive\Failed proposes exactly that set.
//   - Commit: the representative (lowest candidate) proposes a new ring with
//     a fresh identifier; members acknowledge; when every member has
//     acknowledged, the representative broadcasts Install and every member
//     proceeds to the EVS recovery algorithm for the new ring.
//
// Timeouts guarantee the bounded termination the paper requires of the
// underlying membership algorithm (Section 3): if the proposed
// configuration is not installed within a bounded time, silent processes
// are moved to Failed and the proposed membership shrinks.
//
// The Protocol type is a pure state machine: the node supplies received
// messages and timer expirations and transmits the returned messages.
package membership

import (
	"sort"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// staleStrikes is the number of consecutive silent-and-disagreeing join
// timeouts after which a previously-heard process is declared failed.
const staleStrikes = 3

// Phase is the membership protocol phase.
type Phase int

const (
	// Idle means no reconfiguration is in progress.
	Idle Phase = iota + 1
	// Gather means the process is collecting Joins toward consensus.
	Gather
	// Commit means a ring has been proposed and acknowledgments are
	// being collected (at the representative) or awaited (elsewhere).
	Commit
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case Idle:
		return "idle"
	case Gather:
		return "gather"
	case Commit:
		return "commit"
	default:
		return "phase(?)"
	}
}

// Action is the sealed union of protocol outputs.
type Action interface{ isAction() }

// Send instructs the node to broadcast a message.
type Send struct{ Msg wire.Message }

func (Send) isAction() {}

// Form instructs the node to begin the EVS recovery algorithm for the
// agreed new ring.
type Form struct{ Ring model.Configuration }

func (Form) isAction() {}

// Protocol is the membership state machine for one process.
type Protocol struct {
	self       model.ProcessID
	phase      Phase
	attempt    uint64 // monotone join-broadcast counter (persisted by node)
	maxRingSeq uint64

	current model.Configuration // current regular ring, for stale-join tests

	// Gather state.
	joins    map[model.ProcessID]wire.Join
	lastSeen map[model.ProcessID]uint64 // highest join attempt accepted per sender
	failed   model.ProcessSet
	// aloneOK permits singleton consensus; it is granted only by a join
	// timeout, so a process never concludes it is alone before waiting
	// for peers to speak up.
	aloneOK bool
	// heard records processes whose traffic (of any kind) has been seen
	// since the previous join timeout, and strikes counts consecutive
	// timeouts a process spent silent while its join still disagreed
	// with the candidate. After staleStrikes such timeouts the process
	// is presumed failed: it spoke once and died, and its final join may
	// even have been lost in flight. Requiring several strikes keeps
	// ordinary phase misalignment and packet loss from triggering false
	// exclusions.
	heard   map[model.ProcessID]bool
	strikes map[model.ProcessID]int

	// Commit state.
	proposed model.Configuration
	acks     map[model.ProcessID]bool
	isRep    bool

	// lastFormed suppresses re-processing of our own or duplicated
	// Install messages for a ring we already formed.
	lastFormed model.ConfigID

	// met is the process's observability scope (nil disables).
	met *obs.Metrics
}

// New creates the protocol. attempt and maxRingSeq come from stable storage
// so that joins and ring identifiers stay fresh across process recoveries.
func New(self model.ProcessID, attempt, maxRingSeq uint64) *Protocol {
	return &Protocol{
		self:       self,
		phase:      Idle,
		attempt:    attempt,
		maxRingSeq: maxRingSeq,
		lastSeen:   make(map[model.ProcessID]uint64),
	}
}

// SetMetrics attaches the process's observability scope (nil disables).
func (m *Protocol) SetMetrics(met *obs.Metrics) { m.met = met }

// Phase returns the current phase.
func (m *Protocol) Phase() Phase { return m.phase }

// Attempt returns the join-broadcast counter, persisted by the node.
func (m *Protocol) Attempt() uint64 { return m.attempt }

// MaxRingSeq returns the highest ring sequence number seen, persisted by
// the node.
func (m *Protocol) MaxRingSeq() uint64 { return m.maxRingSeq }

// CorruptMaxRingSeq is a chaos fault surface: it regresses the live
// freshness counter to half its value, simulating transient in-memory
// corruption between token visits. The checkConsensus clamp and peers'
// join adoption must heal it before the next configuration identifier
// is minted. It reports whether anything changed.
func (m *Protocol) CorruptMaxRingSeq() bool {
	if m.maxRingSeq == 0 {
		return false
	}
	m.maxRingSeq /= 2
	return true
}

// Proposed returns the ring currently proposed (Commit phase).
func (m *Protocol) Proposed() model.Configuration { return m.proposed }

// SetCurrent tells the protocol which regular ring is installed, for
// stale-join suppression and ring-sequence freshness.
func (m *Protocol) SetCurrent(cfg model.Configuration) {
	m.current = cfg
	if cfg.ID.Seq > m.maxRingSeq {
		m.maxRingSeq = cfg.ID.Seq
	}
	m.phase = Idle
	m.joins = nil
	m.acks = nil
	m.failed = model.NewProcessSet()
}

// StartGather begins (or restarts) the gather phase. It is safe to call in
// any phase; in Gather it re-seeds nothing and simply rebroadcasts.
func (m *Protocol) StartGather() []Action {
	if m.phase != Gather {
		m.phase = Gather
		m.joins = make(map[model.ProcessID]wire.Join)
		m.acks = nil
		m.failed = model.NewProcessSet()
		m.isRep = false
		m.proposed = model.Configuration{}
		m.aloneOK = false
		m.heard = make(map[model.ProcessID]bool)
		m.strikes = make(map[model.ProcessID]int)
	}
	return m.broadcastJoin()
}

// broadcastJoin emits this process's current Join and records it locally.
func (m *Protocol) broadcastJoin() []Action {
	m.attempt++
	j := wire.Join{
		Sender:     m.self,
		Alive:      m.candidate().Members(),
		Failed:     m.failed.Members(),
		MaxRingSeq: m.maxRingSeq,
		Attempt:    m.attempt,
	}
	m.joins[m.self] = j
	m.lastSeen[m.self] = m.attempt
	m.met.Inc(obs.CMemJoinsSent)
	return append([]Action{Send{Msg: j}}, m.checkConsensus()...)
}

// candidate returns the membership this process currently proposes: all
// processes heard from this gather round, minus the failed set, plus self.
func (m *Protocol) candidate() model.ProcessSet {
	ids := make([]model.ProcessID, 0, len(m.joins)+1)
	ids = append(ids, m.self)
	for id := range m.joins {
		if !m.failed.Contains(id) {
			ids = append(ids, id)
		}
	}
	return model.NewProcessSet(ids...)
}

// NoteTraffic records that any wire traffic from p has been observed; the
// node calls it for every received message, so the join-timeout staleness
// rule only fires for processes that are truly silent.
func (m *Protocol) NoteTraffic(p model.ProcessID) {
	if m.heard != nil {
		m.heard[p] = true
	}
}

// Stale reports whether a join is old news from a member of the installed
// ring: the member proposed it before it helped install the current ring.
func (m *Protocol) Stale(j wire.Join) bool {
	return !m.current.ID.IsZero() &&
		m.current.Members.Contains(j.Sender) &&
		j.MaxRingSeq < m.current.ID.Seq
}

// OnJoin ingests a Join. In Idle it starts a gather (someone is
// reconfiguring); the node is responsible for filtering joins through
// Stale first if it wants suppression.
func (m *Protocol) OnJoin(j wire.Join) []Action {
	if j.Attempt <= m.lastSeen[j.Sender] {
		return nil
	}
	m.lastSeen[j.Sender] = j.Attempt
	m.met.Inc(obs.CMemJoinsRecv)
	if j.MaxRingSeq > m.maxRingSeq {
		m.maxRingSeq = j.MaxRingSeq
	}

	var out []Action
	switch m.phase {
	case Commit:
		// Joins from proposed members whose view is contained in the
		// proposal are echoes of the consensus round still in flight;
		// restarting gather on them would livelock. Only joins that
		// genuinely conflict — an outside sender, or a view naming
		// processes outside the proposal — abort the commitment.
		theirs := model.NewProcessSet(j.Alive...).Subtract(model.NewProcessSet(j.Failed...))
		if m.proposed.Members.Contains(j.Sender) && theirs.IsSubsetOf(m.proposed.Members) {
			return nil
		}
		// Conflicting join: fall back to gathering, keeping the joins
		// already heard so consensus can re-form without waiting for
		// every member to rebroadcast.
		m.phase = Gather
		m.isRep = false
		m.proposed = model.Configuration{}
		m.acks = nil
	case Idle:
		out = append(out, m.StartGather()...)
	}
	// A fresh join from a process marked failed is first-hand testimony
	// that it is alive, and overrides failure hearsay. Without this,
	// failure rumors self-sustain after partitions heal: every
	// component's joins carry "the others failed" claims, receivers
	// adopt the claims and then ignore the allegedly-failed senders, so
	// no evidence can ever rebut the rumor and the membership churns
	// through small configurations forever.
	if m.failed.Contains(j.Sender) {
		m.failed = m.failed.Subtract(model.NewProcessSet(j.Sender))
		delete(m.strikes, j.Sender)
	}
	prev := m.candidate()
	prevFailed := m.failed
	m.joins[j.Sender] = j
	// Failure hearsay is adopted only about processes with no direct
	// evidence this round: a process that has sent us a join is known
	// alive first-hand, and first-hand testimony outranks rumor. (It can
	// still be excluded by our own strikes if it goes silent.) Adopting
	// hearsay unconditionally lets stale failure rumors re-poison every
	// fresh gather after a partition heals — faster than installs can
	// clear them — degenerating the membership into endlessly churning
	// micro-configurations.
	hearsay := model.NewProcessSet(j.Failed...)
	for q := range m.joins {
		hearsay = hearsay.Subtract(model.NewProcessSet(q))
	}
	m.failed = m.failed.Union(hearsay)
	// Never mark self failed on hearsay.
	m.failed = m.failed.Subtract(model.NewProcessSet(m.self))

	if !m.candidate().Equal(prev) || !m.failed.Equal(prevFailed) {
		out = append(out, m.broadcastJoin()...)
	} else {
		out = append(out, m.checkConsensus()...)
	}
	return out
}

// checkConsensus tests whether every candidate proposes the candidate set;
// if so the representative proposes a ring.
func (m *Protocol) checkConsensus() []Action {
	if m.phase != Gather {
		return nil
	}
	cand := m.candidate()
	if cand.Size() == 1 && !m.aloneOK {
		// Never conclude we are alone before a join timeout confirms
		// nobody else is speaking.
		return nil
	}
	for _, q := range cand.View() {
		j, ok := m.joins[q]
		if !ok {
			return nil
		}
		theirs := model.NewProcessSet(j.Alive...).Subtract(model.NewProcessSet(j.Failed...))
		if !theirs.Equal(cand) {
			return nil
		}
	}
	rep, ok := cand.Min()
	if !ok {
		return nil
	}
	m.phase = Commit
	m.met.Inc(obs.CMemConsensus)
	if rep != m.self {
		// Wait for the representative's Commit.
		return nil
	}
	m.isRep = true
	m.met.Inc(obs.CMemCommits)
	// Self-stabilization guard: a transiently regressed freshness
	// counter must never mint a configuration identifier at or below
	// one this process already installed — the installed configuration
	// is participation evidence that lower-bounds the counter. Peers'
	// joins heal the multi-process case (OnJoin adopts their maxima).
	if cur := m.current.ID.Seq; m.maxRingSeq < cur {
		m.maxRingSeq = cur
		m.met.Inc(obs.CRingSeqHeals)
	}
	m.maxRingSeq++
	m.proposed = model.Configuration{
		ID:      model.RegularID(m.maxRingSeq, rep),
		Members: cand,
	}
	m.acks = map[model.ProcessID]bool{m.self: true}
	c := wire.Commit{
		NewRing: m.proposed.ID,
		Members: cand.Members(),
		Attempt: m.attempt,
	}
	out := []Action{Send{Msg: c}}
	return append(out, m.maybeInstall()...)
}

// OnCommit ingests a ring proposal from a representative.
func (m *Protocol) OnCommit(c wire.Commit) []Action {
	members := model.NewProcessSet(c.Members...)
	if !members.Contains(m.self) || c.NewRing == m.lastFormed {
		return nil
	}
	if c.NewRing.Seq > m.maxRingSeq {
		m.maxRingSeq = c.NewRing.Seq
	}
	// Ack at most one proposal per gather episode: once committed to a
	// proposal, ignore others until a timeout resets to Gather.
	if m.phase == Commit && !m.proposed.ID.IsZero() && m.proposed.ID != c.NewRing {
		return nil
	}
	if m.phase == Idle {
		// A commit implies a gather we missed; join it rather than
		// silently acking.
		return m.StartGather()
	}
	m.phase = Commit
	m.proposed = model.Configuration{ID: c.NewRing, Members: members}
	return []Action{Send{Msg: wire.CommitAck{
		Ring:    c.NewRing,
		Sender:  m.self,
		Attempt: c.Attempt,
	}}}
}

// OnCommitAck ingests a member's acknowledgment (representative only).
func (m *Protocol) OnCommitAck(a wire.CommitAck) []Action {
	if !m.isRep || m.phase != Commit || a.Ring != m.proposed.ID {
		return nil
	}
	m.acks[a.Sender] = true
	return m.maybeInstall()
}

// maybeInstall broadcasts Install once every proposed member has
// acknowledged.
func (m *Protocol) maybeInstall() []Action {
	for _, q := range m.proposed.Members.View() {
		if !m.acks[q] {
			return nil
		}
	}
	inst := wire.Install{
		NewRing: m.proposed.ID,
		Members: m.proposed.Members.Members(),
		Attempt: m.attempt,
	}
	ring := m.proposed
	m.phase = Idle
	m.lastFormed = ring.ID
	m.met.Inc(obs.CMemInstalls)
	return []Action{Send{Msg: inst}, Form{Ring: ring}}
}

// OnInstall ingests the representative's Install.
func (m *Protocol) OnInstall(i wire.Install) []Action {
	members := model.NewProcessSet(i.Members...)
	if !members.Contains(m.self) || i.NewRing == m.lastFormed {
		return nil
	}
	if i.NewRing.Seq > m.maxRingSeq {
		m.maxRingSeq = i.NewRing.Seq
	}
	if m.phase != Commit || m.proposed.ID != i.NewRing {
		// Install for a ring we did not commit to: if we are mid
		// reconfiguration, let timeouts sort it out; if idle, gather.
		if m.phase == Idle {
			return m.StartGather()
		}
		return nil
	}
	ring := m.proposed
	m.phase = Idle
	m.lastFormed = ring.ID
	m.met.Inc(obs.CMemInstalls)
	return []Action{Form{Ring: ring}}
}

// OnJoinTimeout handles expiry of the gather retry timer: processes that
// appear in somebody's Alive set but have not sent a Join are declared
// failed, and the Join is rebroadcast.
func (m *Protocol) OnJoinTimeout() []Action {
	if m.phase != Gather {
		return nil
	}
	expected := model.NewProcessSet()
	for _, j := range m.joins {
		expected = expected.Union(model.NewProcessSet(j.Alive...))
	}
	var newlyFailed []model.ProcessID
	for _, q := range expected.View() {
		if q == m.self {
			continue
		}
		if _, heard := m.joins[q]; !heard {
			newlyFailed = append(newlyFailed, q)
		}
	}
	// A member that has been completely silent across several whole
	// timeouts is presumed failed: it spoke once and died, and its final
	// join may even claim a view that agrees with ours — an agreeing
	// corpse still deadlocks consensus whenever any live member has
	// excluded it, because the round then needs the corpse to shrink its
	// view. Any live reachable process generates traffic well within one
	// strike period (gather rebroadcasts every JoinRetry; the commit
	// phase falls back to gather within CommitTimeout), so several whole
	// silent periods are real evidence, not phase misalignment.
	if m.strikes == nil {
		m.strikes = make(map[model.ProcessID]int)
	}
	for q := range m.joins {
		if q == m.self || m.failed.Contains(q) {
			continue
		}
		if m.heard[q] {
			m.strikes[q] = 0
			continue
		}
		m.strikes[q]++
		if m.strikes[q] >= staleStrikes {
			newlyFailed = append(newlyFailed, q)
		}
	}
	m.heard = make(map[model.ProcessID]bool)
	m.met.Inc(obs.CMemJoinTimeouts)
	if len(newlyFailed) > 0 {
		sort.Slice(newlyFailed, func(i, j int) bool { return newlyFailed[i] < newlyFailed[j] })
		before := m.failed.Size()
		m.failed = m.failed.Union(model.NewProcessSet(newlyFailed...))
		m.met.Add(obs.CMemFailuresDeclared, uint64(m.failed.Size()-before))
	}
	m.aloneOK = true
	return m.broadcastJoin()
}

// OnCommitTimeout handles expiry of the commit timer: the proposal is
// abandoned and gathering restarts, with unresponsive members (at the
// representative) declared failed.
func (m *Protocol) OnCommitTimeout() []Action {
	if m.phase != Commit {
		return nil
	}
	var silent []model.ProcessID
	if m.isRep {
		for _, q := range m.proposed.Members.View() {
			if !m.acks[q] {
				silent = append(silent, q)
			}
		}
	}
	m.phase = Idle
	out := m.StartGather()
	if len(silent) > 0 {
		before := m.failed.Size()
		m.failed = m.failed.Union(model.NewProcessSet(silent...))
		m.met.Add(obs.CMemFailuresDeclared, uint64(m.failed.Size()-before))
		out = append(out, m.broadcastJoin()...)
	}
	return out
}
