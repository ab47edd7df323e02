// Package stable simulates per-process stable storage.
//
// The EVS model's failure model lets a process fail and later recover "with
// its stable storage intact" and with the same identifier (Section 2). The
// Store holds exactly the protocol state that must survive such a failure:
// the sender sequence counter (so message identifiers are never reused), the
// last regular configuration and the receipt/delivery state for it (so a
// recovered process can rejoin consistently and honour its obligations), the
// obligation set itself, and the primary-component history used by the
// primary component algorithm.
//
// Reads and writes deep-copy what crosses them, simulating the disk
// boundary: no aliasing between volatile protocol state and persisted state
// is possible.
//
// The message log is not part of the Record. It is a dense window over the
// ring's contiguous sequence numbers, (Base, Base+seqlog.MaxSpan], held in
// the same seqlog.Log the ring's receive log uses, and a process writes it
// once, when it fails (SaveLog): a put fills one slot, deep-copies the
// payload into the store's chunk arena and keeps a word-wise checksum in
// the slot. The ring the entries were sequenced in is kept once, beside the
// log, and folded into every checksum. The log is read back once, by
// LoadChecked at restart, as a fresh window holding the entries whose
// checksums still match. An entry beyond the window is rejected, never
// sized for, and reported by LoadChecked like a failed checksum, so the
// recovery machinery re-requests it; the ring's own window is narrower
// (seqlog.MaxSpan has the arithmetic), so only a damaged record gets there.
//
// Writing the log at the failure leaves what a write at every receipt
// would: the in-memory log holds every message the process acknowledged,
// its trims are persisted (as TrimmedUpTo) by the events that make them,
// and a failure is the only way it ends.
package stable

import (
	"encoding/binary"
	"fmt"
	"maps"

	"repro/internal/model"
	"repro/internal/seqlog"
	"repro/internal/wire"
)

// Record is the persistent state of one process.
type Record struct {
	// SenderSeq is the last per-sender sequence number used for an
	// originated message; never reused across recoveries
	// (Specification 1.4).
	SenderSeq uint64
	// JoinAttempt is the membership join counter; persisting it keeps a
	// recovered process's joins fresh so peers do not discard them as
	// duplicates of its previous incarnation.
	JoinAttempt uint64
	// MaxRingSeq is the highest ring sequence number this process has
	// ever observed, keeping configuration identifiers fresh across
	// recoveries.
	MaxRingSeq uint64
	// LastRegular is the last regular configuration this process
	// installed (delivered a configuration change for).
	LastRegular model.Configuration
	// DeliveredUpTo is the delivery watermark within LastRegular's
	// total order.
	DeliveredUpTo uint64
	// SafeBound is the highest sequence number known received by every
	// member of LastRegular.
	SafeBound uint64
	// HighestSeen is the highest sequence number known assigned in
	// LastRegular.
	HighestSeen uint64
	// TrimmedUpTo is the discarded log prefix within LastRegular:
	// sequence numbers at or below it were delivered locally and
	// certified safe (received by every member), mirroring the ring's
	// in-memory trim so the persisted log stays bounded by the
	// flow-control window rather than the run length. It only advances
	// within a configuration; ClearLog resets it.
	TrimmedUpTo uint64
	// Obligations is the obligation set (Section 3, Steps 1 and 5.c).
	Obligations model.ProcessSet
	// SeenSeqs records the highest sender sequence number this process
	// has observed per originator, including itself. It is redundant
	// observation evidence for the self-stabilization fault model: a
	// transient corruption that wraps SenderSeq is healed from
	// SeenSeqs[self] (and from peers' SeenSeqs exchanged during
	// recovery), because reusing a message identifier violates
	// Specification 1.4. A fault that destroys the counter *and* every
	// observation of it — local and remote — is indistinguishable from
	// Byzantine storage, which the protocol does not claim to survive.
	// The store is its one owner: NoteSeen and NoteSent raise it in
	// place, SetScalars leaves it alone, and only Save replaces it.
	SeenSeqs map[model.ProcessID]uint64
	// LastPrimary is the most recent primary component this process
	// installed or learned of, with its sequence for recency.
	LastPrimary model.Configuration
	// PrimaryAttempt marks a primary installation this process agreed
	// to attempt but has not confirmed completed; used by the primary
	// component algorithm to preserve uniqueness across interrupted
	// installations.
	PrimaryAttempt model.Configuration
}

// Store is the stable storage device of one process. The zero value is an
// empty store ready for use.
type Store struct {
	// rec holds every persisted field except the log.
	rec Record
	// lastPut is the sequence number of the entry the last log-extending
	// event stored, the record a torn write would destroy if the log
	// still holds it.
	lastPut     uint64
	corruptions uint64
	// rejected counts entries refused since the log was last replaced
	// because they lay more than seqlog.MaxSpan above its base.
	rejected uint64
	// log is the persisted message log of LastRegular: the messages the
	// process had received when it failed, so that a recovered process can
	// still rebroadcast and deliver what it acknowledged. Each slot
	// carries a checksum computed at write time — the device-level
	// integrity metadata real storage keeps per block — so in-place bit
	// rot of an entry (FlipLogBits) is detectable at the next LoadChecked.
	log seqlog.Log
	// ring is the configuration the logged entries were sequenced in:
	// one per log. SaveLog sets it; otherwise the first put into an empty
	// log does.
	ring model.ConfigID
	// payArena amortises the deep copy a put makes at the simulated disk
	// boundary: payload bytes are carved from a chunked arena (one
	// allocation per chunk) instead of one allocation per message. A
	// chunk is collected once every slot referencing it has been dropped.
	payArena []byte
}

// arenaChunk sizes the payload arena in bytes.
const arenaChunk = 16 << 10

// carve deep-copies src into a chunked arena and returns the carved
// region, full to capacity so appends cannot bleed into the next tenant.
//
//evs:arena
//evs:noalloc
func carve(arena *[]byte, src []byte) []byte {
	n := len(src)
	if len(*arena) < n {
		*arena = make([]byte, max(arenaChunk, n))
	}
	out := (*arena)[:n:n]
	*arena = (*arena)[n:]
	copy(out, src)
	return out
}

// checksum hashes what the delivery and recovery paths interpret of a log
// entry sequenced in ring: the message identity, the ring position, the
// service level and the payload. It is FNV-1a's xor-then-multiply step
// applied to eight bytes at a time: each step is a bijection of the running
// hash for a fixed input word, so any change confined to one word — every
// single-bit flip in particular — changes the result.
//
//evs:noalloc
func checksum(e *seqlog.Entry, ring *model.ConfigID) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	var w uint64
	for i := 0; i < len(e.ID.Sender); i++ {
		w = w<<8 | uint64(e.ID.Sender[i])
		if i&7 == 7 {
			h = (h ^ w) * prime
			w = 0
		}
	}
	h = (h ^ w) * prime
	h = (h ^ e.ID.SenderSeq) * prime
	h = (h ^ e.Seq) * prime
	h = (h ^ ring.Seq) * prime
	h = (h ^ uint64(e.Service())) * prime
	p := e.Payload
	for ; len(p) >= 8; p = p[8:] {
		h = (h ^ binary.LittleEndian.Uint64(p)) * prime
	}
	w = uint64(len(e.Payload)) << 56
	for i, b := range p {
		w |= uint64(b) << (8 * i)
	}
	return (h ^ w) * prime
}

// Load returns a deep copy of the persisted record. The message log is not
// read: only LoadChecked materialises it.
func (s *Store) Load() Record {
	out := s.rec
	// model.ProcessSet and model.Configuration are immutable by
	// convention; sharing is safe.
	out.SeenSeqs = maps.Clone(s.rec.SeenSeqs)
	return out
}

// SenderSeq returns the persisted sender sequence counter without copying
// the record: the identifier of the last message the process originated.
func (s *Store) SenderSeq() uint64 { return s.rec.SenderSeq }

// Save persists a deep copy of every field of the record, the
// primary-component records and SeenSeqs included, as one atomic write
// (simulating an atomic disk commit). The message log is untouched, and
// TrimmedUpTo moves as in SetScalars.
func (s *Store) Save(r Record) {
	s.SetScalars(r)
	s.rec.SeenSeqs = maps.Clone(r.SeenSeqs)
	s.rec.LastPrimary = r.LastPrimary
	s.rec.PrimaryAttempt = r.PrimaryAttempt
}

// SeenSeq returns the highest sender sequence recorded as observed for
// originator p, and whether any was recorded.
//
//evs:noalloc
func (s *Store) SeenSeq(p model.ProcessID) (uint64, bool) {
	v, ok := s.rec.SeenSeqs[p]
	return v, ok
}

// SeenSeqs returns a copy of the observation record: the store owns the
// map, and no caller may alias it (disk boundary).
func (s *Store) SeenSeqs() map[model.ProcessID]uint64 {
	return maps.Clone(s.rec.SeenSeqs)
}

// NoteSeen raises the observation record for originator p to seq (never
// lowers it). The raise rides on the write of the event that observed it,
// so it is not counted as a write of its own.
//
//evs:noalloc
func (s *Store) NoteSeen(p model.ProcessID, seq uint64) {
	if seq <= s.rec.SeenSeqs[p] {
		return
	}
	if s.rec.SeenSeqs == nil {
		s.rec.SeenSeqs = make(map[model.ProcessID]uint64)
	}
	s.rec.SeenSeqs[p] = seq
}

// NoteSent persists the sender counter of a just-minted message identifier
// and records it as observed for the sender itself, as one write: the
// counter is durable before the identifier is used, so it is never reused
// across a crash (Specification 1.4).
//
//evs:noalloc
func (s *Store) NoteSent(self model.ProcessID, seq uint64) {
	s.rec.SenderSeq = seq
	s.NoteSeen(self, seq)
}

// SetScalars persists every field of r except the primary-component
// records (LastPrimary, PrimaryAttempt) and SeenSeqs, which are left as
// stored (the message log is never part of a Record). It is the hot-path
// persistence operation: cost independent of the log size and of the
// observation record, and free of allocations.
// A TrimmedUpTo that advanced past the stored watermark discards the
// corresponding prefix of the stored log, at a cost proportional to the
// entries dropped (none while the log is empty, as it is between the
// installation of a configuration and the next failure).
//
//evs:noalloc
func (s *Store) SetScalars(r Record) {
	lp := s.rec.LastPrimary
	pa := s.rec.PrimaryAttempt
	seen := s.rec.SeenSeqs
	trimmed := s.rec.TrimmedUpTo
	s.rec = r
	s.rec.LastPrimary = lp
	s.rec.PrimaryAttempt = pa
	s.rec.SeenSeqs = seen
	if r.TrimmedUpTo <= trimmed {
		// The watermark is monotone within a configuration; lower
		// inputs (e.g. scalars persisted mid-recovery, which carry no
		// trim knowledge) keep the stored value.
		s.rec.TrimmedUpTo = trimmed
	} else {
		s.log.DropPrefix(r.TrimmedUpTo)
	}
}

// putOne writes one log entry at its sequence number, deep-copying it
// across the disk boundary (payload bytes are carved from the store's
// arena: the make call there refills a chunk, amortised over many
// entries), and remembers it as the record a torn write would destroy.
//
//evs:noalloc
func (s *Store) putOne(d *wire.Data) {
	if s.log.Len() == 0 {
		s.ring = d.Ring
	}
	e, _ := s.log.Put(d.Seq)
	if e == nil {
		if d.Seq > s.rec.TrimmedUpTo {
			s.rejected++
		}
		return
	}
	e.Set(d)
	if d.Payload != nil {
		e.Payload = carve(&s.payArena, d.Payload)
	}
	e.Sum = checksum(e, &s.ring)
	s.lastPut = d.Seq
}

// PutLogBatch puts every message of ds into the stored log, each
// deep-copied once: the put path SaveLog takes.
//
//evs:noalloc
func (s *Store) PutLogBatch(ds []wire.Data) {
	for i := range ds {
		s.putOne(&ds[i])
	}
}

// SaveLog replaces the stored message log with a deep copy of log, the
// in-memory log of ring a failing process held: its window is based at
// log.Base(), and every entry goes through the put path (payload carved
// from the arena, checksum kept in the slot). lastPut is the sequence
// number of the entry the process's last log-extending event stored, the
// record TearLastWrite destroys.
func (s *Store) SaveLog(ring model.ConfigID, log *seqlog.Log, lastPut uint64) {
	s.log = seqlog.Log{}
	s.ring = ring
	s.rejected = 0
	if log != nil {
		s.log.DropPrefix(log.Base())
		for seq := log.Base() + 1; seq <= log.High(); seq++ {
			if e := log.Get(seq); e != nil {
				d := e.Data(ring)
				s.putOne(&d)
			}
		}
	}
	s.lastPut = lastPut
}

// ClearLog drops the persisted message log (a new configuration starts an
// empty log and an untrimmed prefix).
func (s *Store) ClearLog() {
	s.log = seqlog.Log{}
	s.ring = model.ConfigID{}
	s.rejected = 0
	s.rec.TrimmedUpTo = 0
}

// ---------------------------------------------------------------------------
// Injectable corruption model.
//
// The EVS failure model promises recovery "with stable storage intact"
// (Section 2); real disks keep that promise only approximately. The chaos
// engine injects the two classic crash-consistency faults at the moment a
// process fails, and the recovery algorithm's behaviour under them is then
// judged by the specification checker:
//
//   - a torn last record: the write that raced the crash never committed,
//     so the most recently appended log entry vanishes;
//   - a lost suffix: the tail of the log above the known-safe watermark is
//     gone (e.g. unflushed cache pages), but everything the process has
//     told its peers is durable survives.
//
// Both faults are deliberately bounded by SafeBound: entries at or below
// it are known received by every member of the last regular configuration,
// and a fault model that destroys *acknowledged-safe* state is
// indistinguishable from Byzantine storage, which the protocol (and the
// paper) explicitly does not claim to survive.

// TearLastWrite removes the record the last log-extending write stored,
// simulating a torn write racing the crash, unless that record is already
// required to be durable (at or below SafeBound) or the log no longer
// holds it. It reports whether a record was destroyed.
func (s *Store) TearLastWrite() bool {
	if s.lastPut <= s.rec.SafeBound || !s.log.Delete(s.lastPut) {
		return false
	}
	s.corruptions++
	return true
}

// LoseLogSuffix removes up to n of the highest-sequence log records above
// the SafeBound watermark, simulating unflushed tail pages lost in a
// crash. It returns the number of records destroyed.
func (s *Store) LoseLogSuffix(n int) int {
	lost := 0
	for seq := s.log.High(); lost < n && seq > s.log.Base() && seq > s.rec.SafeBound; seq-- {
		if s.log.Delete(seq) {
			lost++
		}
	}
	if lost > 0 {
		s.corruptions++
	}
	return lost
}

// Corruptions returns the number of injected corruption operations that
// destroyed at least one record.
func (s *Store) Corruptions() uint64 { return s.corruptions }

// ---------------------------------------------------------------------------
// Transient state corruption (self-stabilization fault model).
//
// The Practically-Self-Stabilizing Virtual Synchrony line of work asks a
// harder question than crash consistency: does the stack return to legal
// executions after *arbitrary transient corruption* of its state? These
// faults perturb counters and sets rather than destroy log records. Each
// is paired with redundant evidence the recovery path heals from:
//
//   - WrapSenderSeq regresses the sender counter; healed from
//     SeenSeqs[self] and from peers' SeenSeqs (Specification 1.4 evidence).
//   - RegressRingSeq regresses the configuration freshness counter;
//     healed from LastRegular (an installed configuration's sequence is a
//     lower bound the process itself participated in) and from peers'
//     join messages.
//   - PoisonObligations plants ghost processes in the obligation set;
//     rejected at recovery start by intersecting with the known process
//     universe (obligations only ever name members of the old or new
//     configuration, Section 3 Step 5.c).
//   - FlipLogBits rots stored log entries in place; detected by the
//     write-time checksums and dropped by LoadChecked, leaving gaps the
//     recovery retransmission machinery re-requests. Unlike the crash
//     faults above, rot may touch entries at or below SafeBound: those
//     faults destroy records *silently*, so damaging acknowledged-safe
//     state would be Byzantine, while rot is *detected* — a dropped safe
//     entry is certified universally received (that is what the
//     watermark means), so it is re-requestable from any peer and needed
//     for retransmission by none.

// WrapSenderSeq wraps the persisted sender sequence counter back to half
// its value, simulating a transient counter corruption. It reports
// whether anything changed.
func (s *Store) WrapSenderSeq() bool {
	if s.rec.SenderSeq == 0 {
		return false
	}
	s.rec.SenderSeq /= 2
	s.corruptions++
	return true
}

// RegressRingSeq regresses the persisted MaxRingSeq freshness counter to
// half its value. It reports whether anything changed.
func (s *Store) RegressRingSeq() bool {
	if s.rec.MaxRingSeq == 0 {
		return false
	}
	s.rec.MaxRingSeq /= 2
	s.corruptions++
	return true
}

// PoisonObligations plants n ghost process identifiers in the persisted
// obligation set and returns how many were added.
func (s *Store) PoisonObligations(n int) int {
	if n <= 0 {
		return 0
	}
	for i := 0; i < n; i++ {
		s.rec.Obligations = s.rec.Obligations.Add(model.ProcessID(fmt.Sprintf("ghost-%d", i+1)))
	}
	s.corruptions++
	return n
}

// FlipLogBits flips one bit in up to n stored log entries (highest
// sequence numbers first, with no watermark restriction — see the fault
// model comment above), simulating in-place media rot. The write-time
// checksums are deliberately left stale so LoadChecked detects the
// damage. Returns the number of entries corrupted.
func (s *Store) FlipLogBits(n int) int {
	flipped := 0
	for seq := s.log.High(); flipped < n && seq > s.log.Base(); seq-- {
		e := s.log.Get(seq)
		if e == nil {
			continue
		}
		if len(e.Payload) > 0 {
			e.Payload[0] ^= 0x80
		} else {
			e.ID.SenderSeq ^= 1
		}
		flipped++
	}
	if flipped > 0 {
		s.corruptions++
	}
	return flipped
}

// LoadChecked returns a deep copy of the persisted record and of its
// message log after integrity validation, together with one error per
// rejected or healed element. The log comes back as a fresh window based
// where the stored one is (TrimmedUpTo, when the node saved it) — the
// restarting process owns it — holding every entry
// whose checksum still matches. Entries that fail are dropped (the
// resulting gaps are re-requested by the recovery retransmission
// machinery), entries refused at write time for lying beyond the window
// are reported as one counted error (they were never stored, so the same
// machinery re-requests them), and a MaxRingSeq below the process's own
// last installed configuration is clamped back up. Corrupted state is thus
// rejected with propagated errors, never trusted and never fatal.
func (s *Store) LoadChecked() (Record, *seqlog.Log, []error) {
	rec := s.Load()
	log := &seqlog.Log{}
	log.DropPrefix(s.log.Base())
	var errs []error
	for seq := s.log.Base() + 1; seq <= s.log.High(); seq++ {
		e := s.log.Get(seq)
		if e == nil {
			continue
		}
		if checksum(e, &s.ring) != e.Sum {
			errs = append(errs, fmt.Errorf("stable: log entry seq=%d failed checksum; dropped", seq))
			continue
		}
		c, _ := log.Put(seq)
		*c = *e
		c.Payload = append([]byte(nil), e.Payload...)
	}
	if s.rejected > 0 {
		errs = append(errs, fmt.Errorf("stable: %d log entries beyond the %d-entry window above TrimmedUpTo=%d; rejected", s.rejected, uint64(seqlog.MaxSpan), s.rec.TrimmedUpTo))
	}
	if last := rec.LastRegular.ID.Seq; rec.MaxRingSeq < last {
		errs = append(errs, fmt.Errorf("stable: MaxRingSeq=%d below last installed configuration seq=%d; healed", rec.MaxRingSeq, last))
		rec.MaxRingSeq = last
	}
	return rec, log, errs
}
