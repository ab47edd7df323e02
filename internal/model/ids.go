// Package model defines the shared vocabulary of the extended virtual
// synchrony (EVS) reproduction: process, configuration and message
// identifiers, delivery service levels, and the trace events over which the
// formal model of Moser, Amir, Melliar-Smith and Agarwal (ICDCS 1994) is
// specified.
//
// Every layer of the stack (network simulator, total ordering, membership,
// EVS recovery, virtual-synchrony filter, specification checker) speaks in
// these types; the package itself contains no protocol logic.
package model

import (
	"fmt"
	"sort"
	"strings"
)

// ProcessID uniquely identifies a process in the distributed system. A
// process that fails and recovers with its stable storage intact keeps the
// same ProcessID, exactly as the EVS model requires (Section 2 of the
// paper). IDs are ordered lexicographically; the ordering determines ring
// position and the membership representative (lowest ID).
type ProcessID string

// ProcessSet is an immutable-by-convention, sorted, duplicate-free set of
// process identifiers. The zero value is the empty set.
type ProcessSet struct {
	ids []ProcessID
}

// NewProcessSet builds a set from the given identifiers, sorting and
// de-duplicating them. The input slice is not retained.
func NewProcessSet(ids ...ProcessID) ProcessSet {
	sorted := make([]ProcessID, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := sorted[:0]
	for i, id := range sorted {
		if i == 0 || sorted[i-1] != id {
			out = append(out, id)
		}
	}
	return ProcessSet{ids: out}
}

// Size returns the number of members.
func (s ProcessSet) Size() int { return len(s.ids) }

// IsEmpty reports whether the set has no members.
func (s ProcessSet) IsEmpty() bool { return len(s.ids) == 0 }

// Contains reports whether id is a member of the set.
func (s ProcessSet) Contains(id ProcessID) bool {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	return i < len(s.ids) && s.ids[i] == id
}

// Members returns a fresh copy of the sorted member list.
func (s ProcessSet) Members() []ProcessID {
	out := make([]ProcessID, len(s.ids))
	copy(out, s.ids)
	return out
}

// View returns the sorted member list without copying it. The slice
// aliases the set: range over it, but never modify it; use Members for a
// slice of your own.
func (s ProcessSet) View() []ProcessID { return s.ids }

// Next returns the member after id in the canonical order, wrapping from
// the last member to the first — id's successor on a ring of the set's
// members — or "" and false if id is not a member. It copies nothing.
func (s ProcessSet) Next(id ProcessID) (ProcessID, bool) {
	for i, m := range s.ids {
		if m == id {
			return s.ids[(i+1)%len(s.ids)], true
		}
	}
	return "", false
}

// Min returns the smallest member and true, or "" and false if empty. The
// minimum member acts as the representative in the membership protocol.
func (s ProcessSet) Min() (ProcessID, bool) {
	if len(s.ids) == 0 {
		return "", false
	}
	return s.ids[0], true
}

// Equal reports whether two sets have identical membership.
func (s ProcessSet) Equal(t ProcessSet) bool {
	if len(s.ids) != len(t.ids) {
		return false
	}
	for i := range s.ids {
		if s.ids[i] != t.ids[i] {
			return false
		}
	}
	return true
}

// Union returns the set union of s and t.
func (s ProcessSet) Union(t ProcessSet) ProcessSet {
	merged := make([]ProcessID, 0, len(s.ids)+len(t.ids))
	merged = append(merged, s.ids...)
	merged = append(merged, t.ids...)
	return NewProcessSet(merged...)
}

// Intersect returns the set intersection of s and t.
func (s ProcessSet) Intersect(t ProcessSet) ProcessSet {
	var out []ProcessID
	for _, id := range s.ids {
		if t.Contains(id) {
			out = append(out, id)
		}
	}
	return ProcessSet{ids: out}
}

// Subtract returns the members of s that are not in t.
func (s ProcessSet) Subtract(t ProcessSet) ProcessSet {
	var out []ProcessID
	for _, id := range s.ids {
		if !t.Contains(id) {
			out = append(out, id)
		}
	}
	return ProcessSet{ids: out}
}

// Add returns a new set with id included.
func (s ProcessSet) Add(id ProcessID) ProcessSet {
	if s.Contains(id) {
		return s
	}
	return NewProcessSet(append(s.Members(), id)...)
}

// IsSubsetOf reports whether every member of s is also in t.
func (s ProcessSet) IsSubsetOf(t ProcessSet) bool {
	for _, id := range s.ids {
		if !t.Contains(id) {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share at least one member.
func (s ProcessSet) Intersects(t ProcessSet) bool {
	for _, id := range s.ids {
		if t.Contains(id) {
			return true
		}
	}
	return false
}

// String renders the set as "{a,b,c}".
func (s ProcessSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s.ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(id))
	}
	b.WriteByte('}')
	return b.String()
}

// MessageID uniquely identifies an application message system-wide. It is
// the pair (originating process, per-sender sequence number); because a
// process never reuses a sender sequence number — even across failure and
// recovery, the counter is held in stable storage — Specification 1.4's
// requirement that two different processes never send the same message and
// that one process never sends a message twice holds by construction, and
// the specification checker verifies it on traces anyway.
type MessageID struct {
	Sender    ProcessID
	SenderSeq uint64
}

// IsZero reports whether the ID is the zero value (no message).
func (m MessageID) IsZero() bool { return m.Sender == "" && m.SenderSeq == 0 }

// String renders the ID as "sender:seq".
func (m MessageID) String() string {
	return fmt.Sprintf("%s:%d", m.Sender, m.SenderSeq)
}

// Service is the delivery service level requested for a message, mirroring
// Section 2 of the paper: agreed delivery guarantees a total order within
// each component and delivers a message as soon as its predecessors have
// been delivered; safe delivery additionally guarantees that if any process
// in a component delivers the message, every other process in that component
// has received it and will deliver it unless it fails. (Causal delivery is
// subsumed: the total order maintained by the ring protocol preserves
// causality, and the checker verifies Specification 5 independently.)
type Service int

const (
	// Agreed requests totally ordered delivery (abcast in Isis terms).
	Agreed Service = iota + 1
	// Safe requests all-stable totally ordered delivery (all-stable
	// abcast in Isis terms).
	Safe
)

// String returns "agreed" or "safe".
func (s Service) String() string {
	switch s {
	case Agreed:
		return "agreed"
	case Safe:
		return "safe"
	default:
		return fmt.Sprintf("service(%d)", int(s))
	}
}
