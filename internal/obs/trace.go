package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Kind identifies a protocol trace event.
type Kind uint8

const (
	// KBudget: the adaptive flow-control budget changed; A is the new
	// budget. The sequence of KBudget events is the budget trajectory.
	KBudget Kind = iota + 1
	// KGatherEnter: the process left operational/recovering mode for
	// membership gathering; A is a GatherCause.
	KGatherEnter
	// KConfigRegular: a regular configuration was installed; A is the
	// ring sequence number, B the member count.
	KConfigRegular
	// KConfigTransitional: a transitional configuration change was
	// delivered; B is the member count.
	KConfigTransitional
	// KRecoveryStart: recovery (Step 2) began for ring A with B members.
	KRecoveryStart
	// KRecoveryPlan: Step 4 computed the rebroadcast plan; A is the
	// needed-set size.
	KRecoveryPlan
	// KRecoveryDone: this process announced Step 5 completion.
	KRecoveryDone
	// KRecoveryFinish: Step 6 applied; A is the new ring sequence.
	KRecoveryFinish
	// KRecoveryAbort: the attempt was interrupted and discarded.
	KRecoveryAbort
	// KCrash and KRecover: process failure and restart.
	KCrash
	KRecover
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KBudget:
		return "budget"
	case KGatherEnter:
		return "gather_enter"
	case KConfigRegular:
		return "config_regular"
	case KConfigTransitional:
		return "config_transitional"
	case KRecoveryStart:
		return "recovery_start"
	case KRecoveryPlan:
		return "recovery_plan"
	case KRecoveryDone:
		return "recovery_done"
	case KRecoveryFinish:
		return "recovery_finish"
	case KRecoveryAbort:
		return "recovery_abort"
	case KCrash:
		return "crash"
	case KRecover:
		return "recover"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// GatherCause enumerates why a process entered membership gathering,
// carried in a KGatherEnter event's A field.
type GatherCause uint64

const (
	CauseStart GatherCause = iota + 1
	CauseTokenLoss
	CauseForeign
	CauseJoin
	CauseRecoveryTimeout
)

// String names the cause.
func (c GatherCause) String() string {
	switch c {
	case CauseStart:
		return "start"
	case CauseTokenLoss:
		return "token_loss"
	case CauseForeign:
		return "foreign"
	case CauseJoin:
		return "join"
	case CauseRecoveryTimeout:
		return "recovery_timeout"
	default:
		return fmt.Sprintf("cause(%d)", uint64(c))
	}
}

// GatherCounter returns the catalog counter for a gather cause.
func (c GatherCause) GatherCounter() Counter {
	switch c {
	case CauseTokenLoss:
		return CGatherTokenLoss
	case CauseForeign:
		return CGatherForeign
	case CauseJoin:
		return CGatherJoin
	case CauseRecoveryTimeout:
		return CGatherRecoveryTimeout
	default:
		return CGatherStart
	}
}

// Event is one structured protocol trace event. It is a fixed-size value
// type: recording one writes into a preallocated ring slot and allocates
// nothing.
type Event struct {
	// At is the scope clock's time when the event was recorded.
	At time.Duration `json:"at_ns"`
	// Proc is the scope name.
	Proc string `json:"proc"`
	// Kind classifies the event; A and B are kind-specific payloads.
	Kind Kind   `json:"kind"`
	A    uint64 `json:"a,omitempty"`
	B    uint64 `json:"b,omitempty"`
}

// String renders the event for reports.
func (e Event) String() string {
	return fmt.Sprintf("%12s %-4s %-20s a=%d b=%d", e.At, e.Proc, e.Kind, e.A, e.B)
}

// DefaultTraceDepth is the trace ring capacity per scope. At one budget
// change or configuration event every few token rotations this covers
// minutes of protocol history; older events are overwritten.
const DefaultTraceDepth = 4096

// traceRing is a fixed-capacity circular event buffer.
type traceRing struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever recorded
}

func (r *traceRing) init(depth int) {
	if depth <= 0 {
		depth = DefaultTraceDepth
	}
	r.buf = make([]Event, depth)
}

// Event records a protocol trace event. Nil-safe; allocation-free (the ring slot is reused).
//
//evs:noalloc
func (m *Metrics) Event(k Kind, a, b uint64) {
	if m == nil {
		return
	}
	e := Event{At: m.Now(), Proc: m.proc, Kind: k, A: a, B: b}
	r := &m.trace
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = e
	r.next++
	r.mu.Unlock()
}

// Events returns the retained trace events in chronological order.
// Nil-safe: a nil scope has no events.
func (m *Metrics) Events() []Event {
	if m == nil {
		return nil
	}
	r := &m.trace
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	depth := uint64(len(r.buf))
	start := uint64(0)
	if n > depth {
		start = n - depth
	}
	out := make([]Event, 0, n-start)
	for i := start; i < n; i++ {
		out = append(out, r.buf[i%depth])
	}
	return out
}

// EventsDropped returns how many events have been overwritten. Nil-safe.
func (m *Metrics) EventsDropped() uint64 {
	if m == nil {
		return 0
	}
	r := &m.trace
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next <= uint64(len(r.buf)) {
		return 0
	}
	return r.next - uint64(len(r.buf))
}

// MergeEvents interleaves several scopes' retained events into one
// time-ordered stream (stable across scopes at equal times).
func MergeEvents(scopes ...*Metrics) []Event {
	var out []Event
	for _, m := range scopes {
		out = append(out, m.Events()...)
	}
	sortEventsByTime(out)
	return out
}

// sortEventsByTime orders events by time, stably, so same-time events
// keep scope registration order.
func sortEventsByTime(es []Event) {
	sort.SliceStable(es, func(i, j int) bool { return es[i].At < es[j].At })
}
