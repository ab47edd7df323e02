// Package primary implements the primary component algorithm of Section 5
// of the paper: a layer above extended virtual synchrony that marks, for
// each regular configuration, whether it is the primary component, while
// maintaining the two properties of Section 2.2 — Uniqueness (the history
// of primary components is totally ordered) and Continuity (consecutive
// primary components share a member).
//
// The algorithm is a two-phase agreement carried over safe messages within
// the new regular configuration:
//
//  1. On installing a regular configuration C, every member broadcasts (as
//     a safe message) a Proposal carrying the most recent primary component
//     it knows: the one it last installed, or the one it last *attempted*.
//  2. When a member has delivered proposals from every member of C, it
//     evaluates the majority rule: C may be primary iff C's members include
//     a strict majority of the members of the most recent known primary
//     (or of the static universe, when no primary has ever existed). If
//     so, it durably records "attempting C" and broadcasts a Commit.
//  3. When a member has delivered Commits from every member of C, it
//     durably records C as the last primary and reports C primary.
//
// The attempt record is what preserves Uniqueness across interrupted
// installations: if any process completes step 3, then every member of C
// delivered every Commit (they are safe messages), so every member passed
// through step 2 and durably recorded the attempt; any later component
// claiming primacy must include a majority of C's members and will
// therefore learn of C (or of something newer) through their proposals.
// Continuity follows from the majority rule directly: a new primary
// contains a majority — in particular at least one — of the previous
// primary's members.
package primary

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/model"
)

// Kind tags primary-layer messages.
type Kind int

const (
	// KindProposal is the phase-1 knowledge exchange.
	KindProposal Kind = iota + 1
	// KindCommit is the phase-2 agreement to install a primary.
	KindCommit
)

// Message is the primary-layer payload carried inside a safe EVS message.
type Message struct {
	Kind   Kind
	Sender model.ProcessID
	// Config is the regular configuration this message is about.
	Config model.ConfigID
	// Best is the sender's most recent known primary: the later of its
	// last installed primary and its last attempted primary.
	BestSeq     uint64
	BestRep     model.ProcessID
	BestMembers []model.ProcessID
}

// Encode serialises a primary-layer message.
func Encode(m Message) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, fmt.Errorf("primary: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode parses a primary-layer message.
func Decode(b []byte) (Message, error) {
	var m Message
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&m); err != nil {
		return Message{}, fmt.Errorf("primary: decode: %w", err)
	}
	return m, nil
}

// Action is the sealed union of protocol outputs.
type Action interface{ isAction() }

// Broadcast asks the caller to send the message as a safe message in the
// current configuration. The caller encodes it at the transport boundary
// (and owns the handling of encoding or submission failures), keeping the
// protocol itself free of serialisation concerns.
type Broadcast struct{ Msg Message }

func (Broadcast) isAction() {}

// PersistAttempt asks the caller to durably record that this process is
// attempting to install cfg as primary (before any Commit is sent).
type PersistAttempt struct{ Cfg model.Configuration }

func (PersistAttempt) isAction() {}

// PersistPrimary asks the caller to durably record cfg as the last
// installed primary (the attempt record may be cleared).
type PersistPrimary struct{ Cfg model.Configuration }

func (PersistPrimary) isAction() {}

// Decided reports the outcome for a regular configuration. Prev is the
// most recent primary known across the membership at evaluation time (zero
// when none existed); it is the same at every member, which the virtual
// synchrony filter relies on to split merges deterministically (Rule 3 of
// Section 5).
type Decided struct {
	Cfg     model.Configuration
	Primary bool
	Prev    model.Configuration
}

func (Decided) isAction() {}

// Protocol is the per-process primary-component state machine.
type Protocol struct {
	self     model.ProcessID
	universe model.ProcessSet // static universe for the bootstrap majority

	last    model.Configuration // last installed primary (persisted)
	attempt model.Configuration // last attempted primary (persisted)

	cur       model.Configuration // regular configuration under evaluation
	proposals map[model.ProcessID]model.Configuration
	commits   map[model.ProcessID]bool
	newest    model.Configuration // most recent primary known at evaluation
	committed bool
	decided   bool
}

// New creates the protocol. universe is the static process universe used
// for the very first primary (majority bootstrap); last and attempt come
// from stable storage.
func New(self model.ProcessID, universe model.ProcessSet, last, attempt model.Configuration) *Protocol {
	return &Protocol{
		self:     self,
		universe: universe,
		last:     last,
		attempt:  attempt,
	}
}

// best returns the most recent primary this process knows of: the later of
// last and attempt.
func (p *Protocol) best() model.Configuration {
	if p.attempt.ID.Seq > p.last.ID.Seq {
		return p.attempt
	}
	return p.last
}

// OnConfig ingests a configuration change from the EVS layer. Transitional
// configurations abandon any round in progress without deciding; regular
// configurations start a new round.
func (p *Protocol) OnConfig(cfg model.Configuration) []Action {
	if cfg.ID.IsTransitional() {
		p.abandon()
		return nil
	}
	p.abandon()
	p.cur = cfg
	p.proposals = make(map[model.ProcessID]model.Configuration)
	p.commits = make(map[model.ProcessID]bool)
	best := p.best()
	msg := Message{
		Kind:        KindProposal,
		Sender:      p.self,
		Config:      cfg.ID,
		BestSeq:     best.ID.Seq,
		BestRep:     best.ID.Rep,
		BestMembers: best.Members.Members(),
	}
	return []Action{Broadcast{Msg: msg}}
}

// abandon drops the round in progress (the attempt record, if persisted,
// stays: that is the point).
func (p *Protocol) abandon() {
	p.cur = model.Configuration{}
	p.proposals = nil
	p.commits = nil
	p.committed = false
	p.decided = false
}

// OnMessage ingests a delivered primary-layer message (already decoded).
// The message must have been delivered by the EVS layer in the current
// configuration, in safe order.
func (p *Protocol) OnMessage(m Message) []Action {
	if p.cur.ID.IsZero() || m.Config != p.cur.ID || p.decided {
		return nil
	}
	switch m.Kind {
	case KindProposal:
		best := model.Configuration{
			ID:      model.RegularID(m.BestSeq, m.BestRep),
			Members: model.NewProcessSet(m.BestMembers...),
		}
		if m.BestSeq == 0 {
			best = model.Configuration{}
		}
		p.proposals[m.Sender] = best
		return p.evaluate()
	case KindCommit:
		p.commits[m.Sender] = true
		return p.finalize()
	default:
		return nil
	}
}

// evaluate runs the majority rule once every member's proposal is in.
func (p *Protocol) evaluate() []Action {
	if p.committed {
		return nil
	}
	for _, q := range p.cur.Members.View() {
		if _, ok := p.proposals[q]; !ok {
			return nil
		}
	}
	// The most recent known primary across the membership.
	var newest model.Configuration
	for _, b := range p.proposals {
		if b.ID.Seq > newest.ID.Seq ||
			(b.ID.Seq == newest.ID.Seq && b.ID.Rep < newest.ID.Rep) {
			newest = b
		}
	}
	p.newest = newest
	baseline := newest.Members
	if newest.ID.IsZero() {
		baseline = p.universe
	}
	if 2*p.cur.Members.Intersect(baseline).Size() <= baseline.Size() {
		p.decided = true
		return []Action{Decided{Cfg: p.cur, Primary: false, Prev: newest}}
	}
	p.committed = true
	msg := Message{Kind: KindCommit, Sender: p.self, Config: p.cur.ID}
	return []Action{
		PersistAttempt{Cfg: p.cur},
		Broadcast{Msg: msg},
	}
}

// finalize installs the primary once every member committed.
func (p *Protocol) finalize() []Action {
	if !p.committed || p.decided {
		return nil
	}
	for _, q := range p.cur.Members.View() {
		if !p.commits[q] {
			return nil
		}
	}
	p.decided = true
	prev := p.newest
	p.last = p.cur
	p.attempt = model.Configuration{}
	return []Action{
		PersistPrimary{Cfg: p.cur},
		Decided{Cfg: p.cur, Primary: true, Prev: prev},
	}
}
