package stable

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/seqlog"
	"repro/internal/wire"
)

// mapStore is the store as it was before the dense window: a plain map
// keyed by sequence number, a second map of byte-at-a-time FNV-1a
// checksums, a full scan on every trim. It is the differential oracle for
// Store, extended only by the one rule the dense log added — the window
// bound (admit), applied wherever an entry enters the log — and by the
// observation record's contract: SetScalars leaves SeenSeqs as stored,
// NoteSeen/NoteSent raise one entry, and only Save replaces the map.
type mapStore struct {
	rec          Record
	log          map[uint64]wire.Data
	sums         map[uint64]uint64
	lastPut      uint64
	lastPutValid bool
	corruptions  uint64
	rejected     uint64
}

func cloneData(d wire.Data) wire.Data {
	if d.Payload != nil {
		d.Payload = append([]byte(nil), d.Payload...)
	}
	return d
}

func fnv1a(d wire.Data) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	for i := 0; i < len(d.ID.Sender); i++ {
		h ^= uint64(d.ID.Sender[i])
		h *= prime
	}
	mix(d.ID.SenderSeq)
	mix(d.Seq)
	mix(d.Ring.Seq)
	mix(uint64(d.Service))
	for _, b := range d.Payload {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// admit is the window rule: keys at or below the trim watermark are
// discarded, keys more than seqlog.MaxSpan above it are rejected and counted.
func (m *mapStore) admit(seq uint64) bool {
	if seq <= m.rec.TrimmedUpTo {
		return false
	}
	if seq-m.rec.TrimmedUpTo > seqlog.MaxSpan {
		m.rejected++
		return false
	}
	return true
}

func (m *mapStore) insert(seq uint64, d wire.Data) {
	if m.log == nil {
		m.log, m.sums = map[uint64]wire.Data{}, map[uint64]uint64{}
	}
	m.log[seq] = cloneData(d)
	m.sums[seq] = fnv1a(d)
}

func (m *mapStore) Load() Record {
	out := m.rec
	out.SeenSeqs = maps.Clone(m.rec.SeenSeqs)
	return out
}

func (m *mapStore) Save(r Record) {
	m.SetScalars(r)
	m.rec.SeenSeqs = maps.Clone(r.SeenSeqs)
	m.rec.LastPrimary, m.rec.PrimaryAttempt = r.LastPrimary, r.PrimaryAttempt
}

func (m *mapStore) NoteSeen(p model.ProcessID, seq uint64) {
	if seq > m.rec.SeenSeqs[p] {
		if m.rec.SeenSeqs == nil {
			m.rec.SeenSeqs = map[model.ProcessID]uint64{}
		}
		m.rec.SeenSeqs[p] = seq
	}
}

func (m *mapStore) NoteSent(self model.ProcessID, seq uint64) {
	m.rec.SenderSeq = seq
	m.NoteSeen(self, seq)
}

func (m *mapStore) SetScalars(r Record) {
	lp, pa, seen, trimmed := m.rec.LastPrimary, m.rec.PrimaryAttempt, m.rec.SeenSeqs, m.rec.TrimmedUpTo
	m.rec = r
	m.rec.LastPrimary, m.rec.PrimaryAttempt, m.rec.SeenSeqs = lp, pa, seen
	switch {
	case r.TrimmedUpTo < trimmed:
		m.rec.TrimmedUpTo = trimmed
	case r.TrimmedUpTo > trimmed:
		for seq := range m.log {
			if seq <= r.TrimmedUpTo {
				delete(m.log, seq)
				delete(m.sums, seq)
				if m.lastPutValid && m.lastPut == seq {
					m.lastPutValid = false
				}
			}
		}
	}
}

func (m *mapStore) putOne(d wire.Data) {
	if m.admit(d.Seq) {
		m.insert(d.Seq, d)
		m.lastPut, m.lastPutValid = d.Seq, true
	}
}

func (m *mapStore) PutLogBatch(ds []wire.Data) {
	for _, d := range ds {
		m.putOne(d)
	}
}

// SaveLog replaces the log with the entries of l, each admitted by the
// window rule; the last put stays tearable while the new log holds it.
func (m *mapStore) SaveLog(ring model.ConfigID, l *seqlog.Log, lastPut uint64) {
	m.log, m.sums, m.rejected = nil, nil, 0
	for seq := l.Base() + 1; seq <= l.High(); seq++ {
		if e := l.Get(seq); e != nil && m.admit(seq) {
			m.insert(seq, e.Data(ring))
		}
	}
	_, m.lastPutValid = m.log[lastPut]
	m.lastPut = lastPut
}

func (m *mapStore) ClearLog() {
	m.log, m.sums, m.lastPutValid, m.rejected = nil, nil, false, 0
	m.rec.TrimmedUpTo = 0
}

func (m *mapStore) TearLastWrite() bool {
	if !m.lastPutValid || m.lastPut <= m.rec.SafeBound {
		return false
	}
	if _, ok := m.log[m.lastPut]; !ok {
		return false
	}
	delete(m.log, m.lastPut)
	delete(m.sums, m.lastPut)
	m.lastPutValid = false
	m.corruptions++
	return true
}

// descending returns the log's keys above floor, highest first.
func (m *mapStore) descending(floor uint64) []uint64 {
	var seqs []uint64
	for seq := range m.log {
		if seq > floor {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs
}

func (m *mapStore) LoseLogSuffix(n int) int {
	seqs := m.descending(m.rec.SafeBound)
	if n < 0 {
		n = 0
	}
	if n > len(seqs) {
		n = len(seqs)
	}
	for _, seq := range seqs[:n] {
		delete(m.log, seq)
		delete(m.sums, seq)
		if m.lastPutValid && m.lastPut == seq {
			m.lastPutValid = false
		}
	}
	if n > 0 {
		m.corruptions++
	}
	return n
}

func (m *mapStore) FlipLogBits(n int) int {
	seqs := m.descending(0)
	if n < 0 {
		n = 0
	}
	if n > len(seqs) {
		n = len(seqs)
	}
	for _, seq := range seqs[:n] {
		d := m.log[seq]
		if len(d.Payload) > 0 {
			d.Payload[0] ^= 0x80
		} else {
			d.ID.SenderSeq ^= 1
		}
		m.log[seq] = d
	}
	if n > 0 {
		m.corruptions++
	}
	return n
}

func (m *mapStore) LoadChecked() (Record, map[uint64]wire.Data, []error) {
	rec := m.Load()
	log := make(map[uint64]wire.Data, len(m.log))
	for k, v := range m.log {
		log[k] = cloneData(v)
	}
	var errs []error
	var bad []uint64
	for seq, d := range log {
		if fnv1a(d) != m.sums[seq] {
			bad = append(bad, seq)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	for _, seq := range bad {
		delete(log, seq)
		errs = append(errs, fmt.Errorf("stable: log entry seq=%d failed checksum; dropped", seq))
	}
	if m.rejected > 0 {
		errs = append(errs, fmt.Errorf("stable: %d log entries beyond the %d-entry window above TrimmedUpTo=%d; rejected", m.rejected, uint64(seqlog.MaxSpan), m.rec.TrimmedUpTo))
	}
	if last := rec.LastRegular.ID.Seq; rec.MaxRingSeq < last {
		errs = append(errs, fmt.Errorf("stable: MaxRingSeq=%d below last installed configuration seq=%d; healed", rec.MaxRingSeq, last))
		rec.MaxRingSeq = last
	}
	return rec, log, errs
}

// normalize maps the record forms that differ only in nil-versus-empty
// (a representation detail neither store promises) onto one.
func normalize(r Record) Record {
	if len(r.SeenSeqs) == 0 {
		r.SeenSeqs = nil
	}
	return r
}

// entries renders a loaded window, whose entries were sequenced in ring, in
// the oracle's map form, checking that it is based at the record's
// watermark.
func entries(t *testing.T, rec Record, l *seqlog.Log, ring model.ConfigID) map[uint64]wire.Data {
	t.Helper()
	if l.Base() != rec.TrimmedUpTo {
		t.Fatalf("loaded window based at %d, record's watermark %d", l.Base(), rec.TrimmedUpTo)
	}
	out := make(map[uint64]wire.Data, l.Len())
	for seq := l.Base() + 1; seq <= l.High(); seq++ {
		if e := l.Get(seq); e != nil {
			out[seq] = e.Data(ring)
		}
	}
	return out
}

// TestStoreMatchesMapModel drives the dense-window store and the map
// oracle through the same random operation sequences — both write paths
// (the crash-time SaveLog of an in-memory window and PutLogBatch),
// advancing and non-advancing trims, whole-record Saves, observation
// raises and sender-counter writes, every corruption mode — and requires
// the same record, the same loaded window, the same dropped entries with
// the same errors, the same return values and the same corruption count
// after each step. The last-put record is covered by tears issued right
// after trims that pass it and after saves whose last put is stale.
func TestStoreMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s Store
		var m mapStore
		next := uint64(1) // the ring's next contiguous sequence number
		// An entry at the bound makes every checked load scan the
		// whole window; two of the seeds pay for that.
		far := seed%8 == 0
		scalars := Record{LastRegular: model.Configuration{ID: model.RegularID(2, "p"), Members: model.NewProcessSet("p", "q", "r")}, MaxRingSeq: 2}
		msg := func(seq uint64) wire.Data {
			d := wire.Data{
				ID:      model.MessageID{Sender: model.ProcessID([]string{"p", "q", "a-long-process-name"}[rng.Intn(3)]), SenderSeq: seq ^ uint64(rng.Intn(4))},
				Ring:    scalars.LastRegular.ID,
				Seq:     seq,
				Service: model.Service(1 + rng.Intn(2)),
			}
			if n := rng.Intn(40); n > 0 {
				d.Payload = make([]byte, n-1) // sometimes empty but non-nil
				rng.Read(d.Payload)
			}
			return d
		}
		pick := func() uint64 {
			switch rng.Intn(12) {
			case 0: // duplicate or trimmed
				return 1 + uint64(rng.Intn(int(next)))
			case 1: // a hole ahead
				next += uint64(rng.Intn(5))
			case 2: // at, or far past, the window bound
				if far {
					return m.rec.TrimmedUpTo + seqlog.MaxSpan + uint64(rng.Intn(3))
				}
			}
			next++
			return next - 1
		}
		for step := 0; step < 500; step++ {
			op := rng.Intn(16)
			what := fmt.Sprintf("seed %d step %d op %d", seed, step, op)
			switch op {
			case 0, 1, 2:
				// The crash-time write: an in-memory window based at the
				// watermark replaces the log, with the last entry put
				// into it, or sometimes a stale or absent one, as the
				// record a tear destroys.
				var src seqlog.Log
				src.DropPrefix(m.rec.TrimmedUpTo)
				var last uint64
				for i := rng.Intn(12); i > 0; i-- {
					d := msg(pick())
					if e, _ := src.Put(d.Seq); e != nil {
						e.Set(&d)
						last = d.Seq
					}
				}
				if rng.Intn(4) == 0 {
					last = uint64(rng.Intn(int(next) + 1))
				}
				s.SaveLog(scalars.LastRegular.ID, &src, last)
				m.SaveLog(scalars.LastRegular.ID, &src, last)
			case 3, 4, 5:
				batch := make([]wire.Data, 1+rng.Intn(8))
				for i := range batch {
					batch[i] = msg(pick())
				}
				s.PutLogBatch(batch)
				m.PutLogBatch(batch)
			case 6, 7, 8:
				r := scalars
				r.SenderSeq, r.HighestSeen = uint64(step), next-1
				r.SafeBound = uint64(rng.Intn(int(next)))
				r.DeliveredUpTo = r.SafeBound
				r.TrimmedUpTo = uint64(rng.Intn(int(next) + 2)) // below, at, above and past the log
				if rng.Intn(3) == 0 {
					// Ignored: SetScalars leaves the observation record alone.
					r.SeenSeqs = map[model.ProcessID]uint64{"p": uint64(step), "q": 1}
				}
				s.SetScalars(r)
				m.SetScalars(r)
				if rng.Intn(2) == 0 { // a tear right behind a trim that may have passed lastPut
					if got, want := s.TearLastWrite(), m.TearLastWrite(); got != want {
						t.Fatalf("%s: TearLastWrite after trim = %v, model %v", what, got, want)
					}
				}
			case 9:
				if rng.Intn(4) == 0 {
					s.ClearLog()
					m.ClearLog()
					next = 1
				}
			case 10:
				// The primary layer's Load→Save round trip, sometimes
				// carrying a raised watermark.
				r := m.Load()
				if rng.Intn(2) == 0 {
					r.TrimmedUpTo += uint64(rng.Intn(4))
				}
				r.PrimaryAttempt = scalars.LastRegular
				if rng.Intn(4) == 0 {
					// Save replaces the observation record wholesale.
					r.SeenSeqs = map[model.ProcessID]uint64{"q": uint64(step)}
				}
				s.Save(r)
				m.Save(r)
			case 11:
				if got, want := s.TearLastWrite(), m.TearLastWrite(); got != want {
					t.Fatalf("%s: TearLastWrite = %v, model %v", what, got, want)
				}
			case 12:
				n := rng.Intn(5) - 1
				if got, want := s.LoseLogSuffix(n), m.LoseLogSuffix(n); got != want {
					t.Fatalf("%s: LoseLogSuffix(%d) = %d, model %d", what, n, got, want)
				}
			case 13:
				n := rng.Intn(5) - 1
				if got, want := s.FlipLogBits(n), m.FlipLogBits(n); got != want {
					t.Fatalf("%s: FlipLogBits(%d) = %d, model %d", what, n, got, want)
				}
			case 14:
				if rng.Intn(2) == 0 {
					s.WrapSenderSeq()
					m.rec.SenderSeq = s.rec.SenderSeq
				} else {
					s.RegressRingSeq()
					m.rec.MaxRingSeq = s.rec.MaxRingSeq
				}
				m.corruptions = s.Corruptions()
			case 15:
				// Observation raises, lowering attempts and zero
				// observations included, and the Submit-time write.
				p := model.ProcessID([]string{"p", "q", "a-long-process-name"}[rng.Intn(3)])
				seq := uint64(rng.Intn(step + 2))
				if rng.Intn(2) == 0 {
					s.NoteSeen(p, seq)
					m.NoteSeen(p, seq)
				} else {
					s.NoteSent(p, seq)
					m.NoteSent(p, seq)
				}
				for _, q := range []model.ProcessID{"p", "q", "a-long-process-name", "never"} {
					got, gotOK := s.SeenSeq(q)
					want, wantOK := m.rec.SeenSeqs[q]
					if got != want || gotOK != wantOK {
						t.Fatalf("%s: SeenSeq(%s) = %d,%v, model %d,%v", what, q, got, gotOK, want, wantOK)
					}
				}
				if got, want := normalize(Record{SeenSeqs: s.SeenSeqs()}), normalize(Record{SeenSeqs: m.rec.SeenSeqs}); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: SeenSeqs() = %v, model %v", what, got.SeenSeqs, want.SeenSeqs)
				}
			}
			if got, want := normalize(s.Load()), normalize(m.Load()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Load diverged\nstore: %+v\nmodel: %+v", what, got, want)
			}
			gotRec, gotLog, gotErrs := s.LoadChecked()
			wantRec, wantLog, wantErrs := m.LoadChecked()
			if !reflect.DeepEqual(normalize(gotRec), normalize(wantRec)) {
				t.Fatalf("%s: LoadChecked record diverged\nstore: %+v\nmodel: %+v", what, gotRec, wantRec)
			}
			if got := entries(t, gotRec, gotLog, s.ring); !reflect.DeepEqual(got, wantLog) {
				t.Fatalf("%s: LoadChecked window diverged\nstore: %v\nmodel: %v", what, got, wantLog)
			}
			if fmt.Sprint(gotErrs) != fmt.Sprint(wantErrs) {
				t.Fatalf("%s: LoadChecked errors diverged\nstore: %v\nmodel: %v", what, gotErrs, wantErrs)
			}
			if s.Corruptions() != m.corruptions {
				t.Fatalf("%s: corruptions diverged: %d/%d", what, s.Corruptions(), m.corruptions)
			}
		}
	}
}

// TestLastPutDoesNotSurviveATrimThatPassesIt pins the last-put record
// across a trim that passes it: the entry is trimmed, a Save with a lower
// watermark (the primary layer's round trip) keeps the trim, and a torn
// write then has nothing to destroy — above all not the entry that now
// holds the lowest retained key (store and oracle agree).
func TestLastPutDoesNotSurviveATrimThatPassesIt(t *testing.T) {
	var s Store
	var m mapStore
	for _, seq := range []uint64{8, 5} {
		d := []wire.Data{{Seq: seq, Payload: []byte("x")}}
		s.PutLogBatch(d)
		m.PutLogBatch(d)
	}
	s.SetScalars(Record{TrimmedUpTo: 7})
	m.SetScalars(Record{TrimmedUpTo: 7})
	s.Save(Record{TrimmedUpTo: 3})
	m.Save(Record{TrimmedUpTo: 3})
	if got, want := s.TearLastWrite(), m.TearLastWrite(); got || want {
		t.Fatalf("tear destroyed a committed record: store %v, model %v", got, want)
	}
	if got := logSeqs(&s); !reflect.DeepEqual(got, []uint64{8}) || s.Load().TrimmedUpTo != 7 {
		t.Fatalf("log = %v above %d, want [8] above 7", got, s.Load().TrimmedUpTo)
	}
}
