// Package vclock implements the dense vector timestamps of the
// specification checker (internal/spec), which stamps every event of a
// recorded history with a Dense timestamp over a Universe to answer
// precedes queries: an event e precedes e' exactly when stamp(e) <
// stamp(e'). The ring total-ordering protocol preserves causality by
// construction, so no ordered message carries a clock.
package vclock

import (
	"sort"

	"repro/internal/model"
)

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

// Dense is a fixed-width vector timestamp over a Universe: component i
// counts events of the process with dense index i. It performs no hashing
// and allocates nothing during Merge, which makes it suitable
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
