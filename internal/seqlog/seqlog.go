// Package seqlog is the dense, sequence-indexed message log shared by the
// totem ring's receive log and the stable store's persisted log. At a
// configuration change the ring's log itself moves to the recovery
// algorithm, which reads and extends it.
//
// The token assigns sequence numbers contiguously, so a log is a window
// (Base, High] over them. A Log holds that window in a ring-indexed slice:
// the slot of seq is its offset from Base behind a moving head, wrapped
// once, so a put or a probe is one index and trimming the prefix zeroes
// exactly the dropped slots and advances the head — the retained entries
// never move. Presence is a bit in the slot, never inferred from the
// stored message.
//
// A slot holds only what the log does not already know: the message's
// identity, sequence number, service and payload, plus the user's
// integrity word and the presence bit — 72 bytes on a 64-bit machine.
// Every entry of a log was sequenced in one ring, so the ring identity
// belongs to the log's owner (the ring's configuration, the recovery's
// old ring, the store's last regular configuration), not to the slot;
// Entry.Data puts it back where a message goes back on the wire.
//
// The window is bounded: a put more than the limit above Base is refused
// rather than sized for, so one far-off sequence number (a damaged record,
// a corrupt packet) cannot become an allocation.
package seqlog

import (
	"math"

	"repro/internal/model"
	"repro/internal/wire"
)

// MaxSpan is the window bound of a Log whose Limit is unset. The widest
// window the protocol produces is the ring's: in steady state the
// retention cushion (two flow windows), the flow window itself and the
// lazy-trim chunk, where the flow window is 2·members·AdaptiveMax — 25,600
// for a 32-member ring under totem.DefaultOptions, and under three
// cushions (50,176) on any conforming schedule. The ring sets its own
// Limit from its options; this default serves the stable store, which is
// written only with what a ring accepted.
const MaxSpan = 1 << 16

// minSlots is the first allocation of a growing log.
const minSlots = 64

// Entry is one slot of a Log: a sequenced message without its ring.
type Entry struct {
	ID      model.MessageID
	Seq     uint64
	Payload []byte
	// Sum is an integrity word owned by the user of the log (the stable
	// store's write-time checksum; unused by the ring).
	Sum     uint64
	service uint8 // model.Service: Agreed or Safe
	Present bool
}

// Service returns the message's delivery service level.
func (e *Entry) Service() model.Service { return model.Service(e.service) }

// Set stores d's message in the slot. The payload is shared, not copied:
// a message is immutable once sequenced, under the Transport ownership
// contract (node.Transport). A service level outside a byte (only a
// corrupt frame decodes to one) is kept as 255, which is neither Agreed
// nor Safe, as the level itself was.
//
//evs:noalloc
func (e *Entry) Set(d *wire.Data) {
	svc := d.Service
	if svc < 0 || svc > math.MaxUint8 {
		svc = math.MaxUint8
	}
	e.ID, e.Seq, e.service = d.ID, d.Seq, uint8(svc)
	e.Payload = d.Payload //lint:allow wireown a sequenced message is immutable under the Transport ownership contract; the slot shares its payload as the whole-message copy into the log did
}

// Data rebuilds the message as it was sequenced in ring, for a path that
// puts it back on the wire (a retransmission or a recovery rebroadcast).
// The payload is the slot's own.
//
//evs:noalloc
func (e *Entry) Data(ring model.ConfigID) wire.Data {
	return wire.Data{
		ID:      e.ID,
		Ring:    ring,
		Seq:     e.Seq,
		Service: e.Service(),
		Payload: e.Payload, //lint:allow wireown the slot's payload is an immutable sequenced message; retransmitting it shares it as the whole-message copy out of the log did
	}
}

// Log is a window of entries indexed by sequence number. The zero value is
// an empty log with base 0.
type Log struct {
	// Limit bounds High−Base (0 means MaxSpan).
	Limit uint64

	slots []Entry // a ring: the slot of base+1 is slots[head]
	head  uint64
	base  uint64 // sequence numbers at or below base are trimmed
	high  uint64 // no entry is present above high; slots outside (base, high] are zero
	n     int    // present entries
}

// slot returns the slot of seq, which must lie in (base, base+len(slots)].
func (l *Log) slot(seq uint64) *Entry {
	i := l.head + (seq - l.base - 1)
	if n := uint64(len(l.slots)); i >= n {
		i -= n
	}
	return &l.slots[i]
}

// Base returns the trimmed prefix watermark.
func (l *Log) Base() uint64 { return l.base }

// High returns an upper bound on the present sequence numbers (Base when
// the log is empty); a scan of (Base, High] visits every entry.
func (l *Log) High() uint64 { return l.high }

// Len returns the number of present entries.
func (l *Log) Len() int { return l.n }

// Get returns the entry stored at seq, or nil when there is none.
//
//evs:noalloc
func (l *Log) Get(seq uint64) *Entry {
	if seq <= l.base || seq > l.high {
		return nil
	}
	if e := l.slot(seq); e.Present {
		return e
	}
	return nil
}

// Put marks seq present and returns its slot for the caller to fill, with
// fresh reporting whether it was absent before. A seq at or below Base, or
// more than the limit above it, is outside the window: Put returns nil and
// stores nothing.
//
//evs:noalloc
func (l *Log) Put(seq uint64) (e *Entry, fresh bool) {
	limit := l.Limit
	if limit == 0 {
		limit = MaxSpan
	}
	if seq <= l.base || seq-l.base > limit {
		return nil, false
	}
	if seq-l.base > uint64(len(l.slots)) {
		l.grow(seq - l.base)
	}
	if seq > l.high {
		l.high = seq
	}
	e = l.slot(seq)
	if e.Present {
		return e, false
	}
	e.Present = true
	l.n++
	return e, true
}

// doubleBelow is the slot count up to which a growing log doubles.
const doubleBelow = 4096

// grow moves the window into a larger slice: twice the old one while that
// stays within doubleBelow slots — every configuration starts a fresh log,
// so small logs regrow often and must climb in few steps — and a quarter
// more than span beyond it, so the capacity of a long-lived log follows
// the widest retained window rather than a doubling high-water mark.
func (l *Log) grow(span uint64) {
	size := max(span+span/4, min(2*uint64(len(l.slots)), doubleBelow), minSlots)
	grown := make([]Entry, size)
	for seq := l.base + 1; seq <= l.high; seq++ {
		grown[seq-l.base-1] = *l.slot(seq)
	}
	l.slots, l.head = grown, 0
}

// Delete removes the entry at seq and reports whether there was one.
func (l *Log) Delete(seq uint64) bool {
	e := l.Get(seq)
	if e == nil {
		return false
	}
	*e = Entry{}
	l.n--
	return true
}

// DropPrefix discards every entry at or below upTo and advances Base to it
// (a lower upTo is a no-op). Only the dropped slots are visited; zeroing
// them releases the payload memory they referenced.
//
//evs:noalloc
func (l *Log) DropPrefix(upTo uint64) {
	if upTo <= l.base {
		return
	}
	last := upTo
	if last > l.high {
		last = l.high
	}
	for seq := l.base + 1; seq <= last; seq++ {
		e := l.slot(seq)
		if e.Present {
			l.n--
		}
		*e = Entry{}
	}
	if l.high <= upTo {
		l.head, l.high = 0, upTo // empty now: any head will do
	} else if l.head += upTo - l.base; l.head >= uint64(len(l.slots)) {
		l.head -= uint64(len(l.slots))
	}
	l.base = upTo
}
