// Package vclock implements vector clocks.
//
// The ring total-ordering protocol preserves causality by construction, so
// no ordered message carries a clock. Two consumers need one: the causal
// multicast buffer of the Figure 5 experiments (internal/causal), which
// orders by the sparse VC, and the specification checker (internal/spec),
// which stamps every event of a recorded history with a Dense timestamp
// over a Universe to answer precedes queries: an event e precedes e'
// exactly when stamp(e) < stamp(e').
package vclock

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/model"
)

// VC is a vector clock: a map from process identifier to event count. A nil
// VC is the zero clock.
type VC map[model.ProcessID]uint64

// New returns an empty vector clock.
func New() VC { return make(VC) }

// Clone returns a deep copy of the clock.
func (v VC) Clone() VC {
	out := make(VC, len(v))
	for k, t := range v {
		out[k] = t
	}
	return out
}

// Tick increments the component of process p and returns the clock.
func (v VC) Tick(p model.ProcessID) VC {
	v[p]++
	return v
}

// Get returns the component of process p (zero if absent).
func (v VC) Get(p model.ProcessID) uint64 { return v[p] }

// Merge sets each component of v to the maximum of v and w.
func (v VC) Merge(w VC) VC {
	for k, t := range w {
		if t > v[k] {
			v[k] = t
		}
	}
	return v
}

// Compare classifies the relationship between two vector clocks.
type Ordering int

const (
	// Equal means the clocks are identical.
	Equal Ordering = iota + 1
	// Before means v happened-before w (v < w).
	Before
	// After means w happened-before v (v > w).
	After
	// Concurrent means neither happened before the other.
	Concurrent
)

// String names the ordering.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("ordering(%d)", int(o))
	}
}

// Compare returns the causal relationship of v to w.
func (v VC) Compare(w VC) Ordering {
	vLess, wLess := false, false
	for k, t := range v {
		switch wt := w[k]; {
		case t < wt:
			vLess = true
		case t > wt:
			wLess = true
		}
	}
	for k, wt := range w {
		if _, ok := v[k]; !ok && wt > 0 {
			vLess = true
		}
	}
	switch {
	case vLess && wLess:
		return Concurrent
	case vLess:
		return Before
	case wLess:
		return After
	default:
		return Equal
	}
}

// HappenedBefore reports whether v strictly precedes w causally.
func (v VC) HappenedBefore(w VC) bool { return v.Compare(w) == Before }

// Universe is a fixed, dense enumeration of a process set, assigning each
// process a small integer index. It is the coordinate system for Dense
// vector timestamps: when the process universe is known up front (as it is
// for a recorded history), a vector timestamp is a flat array of P
// counters instead of a map, and merging two timestamps is a tight loop
// over int32 components with no hashing and no allocation. The
// specification checker stamps every event of an n-event history with a
// Dense timestamp, turning precedes queries into one array comparison and
// keeping memory at O(n·P) where the transitive-closure bitset
// representation needed O(n²).
type Universe struct {
	ids   []model.ProcessID
	index map[model.ProcessID]int
}

// NewUniverse builds a universe over the given processes, sorted and
// de-duplicated, so the index assignment is deterministic.
func NewUniverse(ids []model.ProcessID) *Universe {
	sorted := make([]model.ProcessID, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	u := &Universe{index: make(map[model.ProcessID]int, len(sorted))}
	for i, id := range sorted {
		if i > 0 && sorted[i-1] == id {
			continue
		}
		u.index[id] = len(u.ids)
		u.ids = append(u.ids, id)
	}
	return u
}

// Len returns the number of processes in the universe.
func (u *Universe) Len() int { return len(u.ids) }

// Index returns the dense index of p, or -1 if p is not in the universe.
func (u *Universe) Index(p model.ProcessID) int {
	if i, ok := u.index[p]; ok {
		return i
	}
	return -1
}

// ID returns the process at dense index i.
func (u *Universe) ID(i int) model.ProcessID { return u.ids[i] }

// NewDense returns a zero Dense timestamp sized for the universe.
func (u *Universe) NewDense() Dense { return make(Dense, len(u.ids)) }

// ToVC converts a Dense timestamp back to a sparse VC (for display and
// interop); zero components are omitted.
func (u *Universe) ToVC(d Dense) VC {
	v := New()
	for i, t := range d {
		if t > 0 {
			v[u.ids[i]] = uint64(t)
		}
	}
	return v
}

// Dense is a fixed-width vector timestamp over a Universe: component i
// counts events of the process with dense index i. Unlike VC it performs
// no hashing and allocates nothing during Merge, which makes it suitable
// for stamping every event of a large history. A Dense value is only
// comparable with others from the same universe.
type Dense []int32

// Merge raises each component of d to the maximum of d and o.
func (d Dense) Merge(o Dense) {
	for i, t := range o {
		if t > d[i] {
			d[i] = t
		}
	}
}

// Covers reports whether every component of d is at least the matching
// component of o — i.e. o's causal history is contained in d's.
func (d Dense) Covers(o Dense) bool {
	for i, t := range o {
		if d[i] < t {
			return false
		}
	}
	return true
}

// HappenedBefore reports whether d strictly precedes o: o covers d and
// they differ in at least one component.
func (d Dense) HappenedBefore(o Dense) bool {
	if !o.Covers(d) {
		return false
	}
	for i := range d {
		if d[i] != o[i] {
			return true
		}
	}
	return false
}

// Stamp pairs a Dense vector with its Universe. It is unread: no ordered
// message carries a clock. It is kept only because the frozen
// benchmark/rigs.go builds one for the VC field of wire.Data; it goes
// with that file's next change.
type Stamp struct {
	U *Universe
	D Dense
}

// String renders the clock deterministically, e.g. "[p:1 q:3]".
func (v VC) String() string {
	keys := make([]model.ProcessID, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b strings.Builder
	b.WriteByte('[')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", k, v[k])
	}
	b.WriteByte(']')
	return b.String()
}
