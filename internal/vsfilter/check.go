package vsfilter

import (
	"fmt"

	"repro/internal/model"
)

// EventType enumerates virtual-synchrony trace events (Section 4).
type EventType int

const (
	// EventView is view_i(g^x).
	EventView EventType = iota + 1
	// EventSend is a send of a multicast message (recorded when the
	// application submits while unblocked).
	EventSend
	// EventDeliver is deliver_i(m) within a view.
	EventDeliver
	// EventStop is the distinguished final failure event.
	EventStop
)

// TraceEvent is one event of a virtual-synchrony history.
type TraceEvent struct {
	Type    EventType
	Proc    model.ProcessID
	View    ViewID           // View/Deliver: the view
	Members model.ProcessSet // View: membership
	Msg     model.MessageID  // Send/Deliver
}

// String renders the event.
func (e TraceEvent) String() string {
	switch e.Type {
	case EventView:
		return fmt.Sprintf("view_%s(%s%s)", e.Proc, e.View, e.Members)
	case EventSend:
		return fmt.Sprintf("send_%s(%s)", e.Proc, e.Msg)
	case EventDeliver:
		return fmt.Sprintf("deliver_%s(%s, %s)", e.Proc, e.Msg, e.View)
	case EventStop:
		return fmt.Sprintf("stop_%s", e.Proc)
	default:
		return "vsevent(?)"
	}
}

// Violation is a breach of the virtual synchrony model.
type Violation struct {
	Cond string // "C2", "C3", "L1-L5", "L4"
	Msg  string
}

// String renders the violation.
func (v Violation) String() string { return fmt.Sprintf("[vs %s] %s", v.Cond, v.Msg) }

// Check validates a virtual-synchrony history (events in global
// observation order) against the completeness conditions C1-C3 and the
// legality conditions L1-L5 of Section 4 of the paper, applying the
// paper's extend mechanism: processes that stopped, or whose history ends
// mid-view, are excused from missing deliveries (their histories are
// conceptually extended).
//
// The settled flag enforces the completeness conditions on processes that
// are still running at the end of the history.
func Check(events []TraceEvent, settled bool) []Violation {
	var out []Violation

	stopped := make(map[model.ProcessID]bool)
	byProc := make(map[model.ProcessID][]int)
	sends := make(map[model.MessageID]int)
	delivers := make(map[model.MessageID][]int)
	viewEvents := make(map[ViewID][]int)
	viewMembers := make(map[ViewID]model.ProcessSet)
	lastView := make(map[model.ProcessID]ViewID)
	deliveredIn := make(map[model.MessageID]map[model.ProcessID]ViewID)

	for i, e := range events {
		byProc[e.Proc] = append(byProc[e.Proc], i)
		switch e.Type {
		case EventStop:
			stopped[e.Proc] = true
		case EventSend:
			if _, dup := sends[e.Msg]; dup {
				out = append(out, Violation{
					Cond: "C1",
					Msg:  fmt.Sprintf("message %s sent twice", e.Msg),
				})
			}
			sends[e.Msg] = i
		case EventDeliver:
			delivers[e.Msg] = append(delivers[e.Msg], i)
			if deliveredIn[e.Msg] == nil {
				deliveredIn[e.Msg] = make(map[model.ProcessID]ViewID)
			}
			if prev, dup := deliveredIn[e.Msg][e.Proc]; dup {
				out = append(out, Violation{
					Cond: "C1",
					Msg:  fmt.Sprintf("%s delivered %s twice (views %s, %s)", e.Proc, e.Msg, prev, e.View),
				})
			}
			deliveredIn[e.Msg][e.Proc] = e.View
			if e.View != lastView[e.Proc] {
				out = append(out, Violation{
					Cond: "L4",
					Msg: fmt.Sprintf("%s delivered %s tagged %s while its current view is %s",
						e.Proc, e.Msg, e.View, lastView[e.Proc]),
				})
			}
		case EventView:
			viewEvents[e.View] = append(viewEvents[e.View], i)
			if m, ok := viewMembers[e.View]; ok && !m.Equal(e.Members) {
				out = append(out, Violation{
					Cond: "L3",
					Msg:  fmt.Sprintf("view %s has inconsistent memberships %s and %s", e.View, m, e.Members),
				})
			}
			viewMembers[e.View] = e.Members
			lastView[e.Proc] = e.View
		}
	}

	// L4: deliveries of one message occur in the same view everywhere.
	for m, per := range deliveredIn {
		var first ViewID
		set := false
		for _, v := range per {
			if !set {
				first, set = v, true
				continue
			}
			if v != first {
				out = append(out, Violation{
					Cond: "L4",
					Msg:  fmt.Sprintf("message %s delivered in different views %s and %s", m, first, v),
				})
				break
			}
		}
	}

	// C2: every send is delivered by someone, unless the sender stopped
	// (extend imputes the delivery) or the history is not settled.
	if settled {
		for m, si := range sends {
			if len(delivers[m]) == 0 && !stopped[events[si].Proc] {
				out = append(out, Violation{
					Cond: "C2",
					Msg:  fmt.Sprintf("message %s was sent but never delivered", m),
				})
			}
		}
	}

	// C3: a message delivered in view v is delivered by every member of
	// v, unless that member stopped or its history ends inside v
	// (extend).
	for m, per := range deliveredIn {
		var v ViewID
		for _, vv := range per {
			v = vv
			break
		}
		members, ok := viewMembers[v]
		if !ok {
			continue
		}
		for _, q := range members.View() {
			if _, has := per[q]; has || stopped[q] {
				continue
			}
			if !settled && lastView[q] == v {
				continue
			}
			if settled && lastView[q] == v {
				out = append(out, Violation{
					Cond: "C3",
					Msg:  fmt.Sprintf("member %s of view %s never delivered %s", q, v, m),
				})
				continue
			}
			if lastView[q] != v {
				// q moved to another view without delivering m:
				// the extend mechanism cannot repair this.
				out = append(out, Violation{
					Cond: "C3",
					Msg:  fmt.Sprintf("member %s of view %s moved on without delivering %s", q, v, m),
				})
			}
		}
	}

	// L1/L2/L3/L5: a legal global time assignment exists iff the
	// condensation (same-message deliveries merged, same-view events
	// merged) of the per-process orders plus send→deliver edges is
	// acyclic.
	if cyclic := condensationCyclic(events, byProc, sends, delivers, viewEvents); cyclic {
		out = append(out, Violation{
			Cond: "L1-L5",
			Msg:  "no legal time assignment exists: the condensed event graph is cyclic",
		})
	}
	return out
}

// condensationCyclic builds the condensed event graph and reports cycles.
func condensationCyclic(
	events []TraceEvent,
	byProc map[model.ProcessID][]int,
	sends map[model.MessageID]int,
	delivers map[model.MessageID][]int,
	viewEvents map[ViewID][]int,
) bool {
	n := len(events)
	super := make([]int, n)
	for i := range super {
		super[i] = -1
	}
	next := 0
	alloc := func(idxs []int) {
		for _, i := range idxs {
			super[i] = next
		}
		next++
	}
	for _, idxs := range delivers {
		alloc(idxs)
	}
	for _, idxs := range viewEvents {
		alloc(idxs)
	}
	for i := range super {
		if super[i] == -1 {
			alloc([]int{i})
		}
	}
	adj := make(map[int]map[int]bool)
	addEdge := func(a, b int) {
		sa, sb := super[a], super[b]
		if sa == sb {
			return
		}
		if adj[sa] == nil {
			adj[sa] = make(map[int]bool)
		}
		adj[sa][sb] = true
	}
	for _, idxs := range byProc {
		for k := 0; k+1 < len(idxs); k++ {
			addEdge(idxs[k], idxs[k+1])
		}
	}
	for m, s := range sends {
		for _, d := range delivers[m] {
			addEdge(s, d)
		}
	}
	// Kahn's algorithm.
	indeg := make([]int, next)
	for _, ss := range adj {
		for b := range ss {
			indeg[b]++
		}
	}
	var queue []int
	for s := 0; s < next; s++ {
		if indeg[s] == 0 {
			queue = append(queue, s)
		}
	}
	done := 0
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		done++
		for b := range adj[s] {
			indeg[b]--
			if indeg[b] == 0 {
				queue = append(queue, b)
			}
		}
	}
	return done != next
}
