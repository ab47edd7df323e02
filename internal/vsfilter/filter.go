// Package vsfilter implements the filter of Section 5 of the paper, which
// runs on top of extended virtual synchrony (plus the primary component
// algorithm) and presents Birman's virtual synchrony model to the
// application — thereby demonstrating that extended virtual synchrony does
// extend virtual synchrony (Figure 7).
//
// The filter's four rules:
//
//  1. Configuration changes for transitional configurations are masked, and
//     deliveries in trans_p(c) are re-tagged as deliveries in reg_p(c).
//  2. On a regular configuration that is not the primary component, the
//     process blocks: sends are refused, deliveries and configuration
//     changes are discarded, until the process is merged into the primary
//     component again.
//  3. A primary configuration that merges several processes at once is
//     split into a sequence of view events, each merging one process, in a
//     deterministic (lexicographic) order.
//  4. A process returning from a non-primary component generates the same
//     view events as the incumbent members when it is merged back in.
//
// Views are identified deterministically by (configuration, step) so that
// every process emits identical view events for the same logical view — the
// property Birman's legality condition L3 requires.
package vsfilter

import (
	"fmt"

	"repro/internal/model"
)

// ViewID identifies a virtual synchrony view: a primary regular
// configuration plus the step index of the Rule 3 split.
type ViewID struct {
	Cfg  model.ConfigID
	Step int
}

// IsZero reports whether the ID is empty.
func (v ViewID) IsZero() bool { return v.Cfg.IsZero() }

// String renders the view identifier.
func (v ViewID) String() string {
	return fmt.Sprintf("view(%s#%d)", v.Cfg, v.Step)
}

// View is a view identifier with its membership.
type View struct {
	ID      ViewID
	Members model.ProcessSet
}

// String renders the view.
func (v View) String() string { return fmt.Sprintf("%s%s", v.ID, v.Members) }

// Output is the sealed union of filter outputs.
type Output interface{ isOutput() }

// ViewChange is a virtual synchrony view event (view_i(g^x) in Section 4).
type ViewChange struct{ View View }

func (ViewChange) isOutput() {}

// Deliver is a message delivery within a view.
type Deliver struct {
	Msg     model.MessageID
	Payload []byte
	Service model.Service
	View    ViewID
}

func (Deliver) isOutput() {}

// Filter is the per-process transformation from the EVS event stream to the
// virtual synchrony event stream.
type Filter struct {
	self model.ProcessID

	view    View // current view (zero when never yet in a primary)
	blocked bool // Rule 2: true while outside the primary component

	// pending is the regular configuration awaiting a primary decision;
	// deliveries in it are buffered until the decision arrives.
	pending    model.ConfigID
	pendingBuf []Deliver
}

// New creates a filter. A fresh process starts blocked: it has never been
// part of the primary component.
func New(self model.ProcessID) *Filter {
	return &Filter{self: self, blocked: true}
}

// Blocked reports whether the process is currently outside the primary
// component (Rule 2) or awaiting a primary decision.
func (f *Filter) Blocked() bool { return f.blocked || !f.pending.IsZero() }

// CurrentView returns the current view (zero while blocked).
func (f *Filter) CurrentView() View { return f.view }

// OnConfig ingests an EVS configuration change.
func (f *Filter) OnConfig(cfg model.Configuration) []Output {
	if cfg.ID.IsTransitional() {
		// Rule 1: mask; deliveries that follow are re-tagged into the
		// current view (which corresponds to reg_p(c)).
		return nil
	}
	// A regular configuration: await the primary decision; in the
	// meantime buffer deliveries (they are emitted into the new view if
	// it turns out primary).
	f.pending = cfg.ID
	f.pendingBuf = nil
	return nil
}

// OnDeliver ingests an EVS message delivery (application messages only;
// the primary layer's own messages are consumed before the filter).
func (f *Filter) OnDeliver(msg model.MessageID, payload []byte, svc model.Service) []Output {
	d := Deliver{Msg: msg, Payload: payload, Service: svc}
	if !f.pending.IsZero() {
		f.pendingBuf = append(f.pendingBuf, d)
		return nil
	}
	if f.blocked {
		// Rule 2: discard.
		return nil
	}
	// Rule 1: deliveries in the transitional configuration land here and
	// are tagged with the current (regular) view.
	d.View = f.view.ID
	return []Output{d}
}

// OnPrimaryDecision ingests the primary component algorithm's verdict for
// the configuration awaiting a decision. prev is the previous primary
// component (identical at every member by construction).
func (f *Filter) OnPrimaryDecision(cfg model.Configuration, isPrimary bool, prev model.Configuration) []Output {
	if cfg.ID != f.pending {
		return nil
	}
	buf := f.pendingBuf
	f.pending = model.ConfigID{}
	f.pendingBuf = nil

	if !isPrimary {
		// Rule 2: block; buffered deliveries are discarded.
		f.blocked = true
		f.view = View{}
		return nil
	}

	// Rules 3 and 4: split the installation into deterministic view
	// events. The base is the carried-over membership: members of the
	// previous primary still present; each remaining member is merged
	// one at a time in lexicographic order.
	base := prev.Members.Intersect(cfg.Members)
	if base.IsEmpty() {
		// First primary ever (or no surviving member): the base is
		// the lexicographically first member.
		first, _ := cfg.Members.Min()
		base = model.NewProcessSet(first)
	}
	var out []Output
	step := 0
	emit := func(members model.ProcessSet) {
		v := View{ID: ViewID{Cfg: cfg.ID, Step: step}, Members: members}
		step++
		f.view = v
		// Rule 4: a process emits only the views it belongs to.
		if members.Contains(f.self) {
			out = append(out, ViewChange{View: v})
		}
	}
	emit(base)
	for _, q := range cfg.Members.Subtract(base).View() {
		base = base.Add(q)
		emit(base)
	}
	f.blocked = false

	// Deliveries buffered while the decision was pending belong to the
	// final view.
	for _, d := range buf {
		d.View = f.view.ID
		out = append(out, d)
	}
	return out
}
