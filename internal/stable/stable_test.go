package stable

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/seqlog"
	"repro/internal/wire"
)

func TestZeroStoreLoadsEmptyRecord(t *testing.T) {
	var s Store
	r := s.Load()
	if r.SenderSeq != 0 || !r.LastRegular.ID.IsZero() {
		t.Fatalf("zero store should load zero record, got %+v", r)
	}
	if _, log, errs := s.LoadChecked(); log.Len() != 0 || log.Base() != 0 || len(errs) != 0 {
		t.Fatalf("zero store should load an empty log, got Len=%d Base=%d errors %v", log.Len(), log.Base(), errs)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	var s Store
	rec := Record{
		SenderSeq:     5,
		MaxRingSeq:    3,
		LastRegular:   model.Configuration{ID: model.RegularID(3, "p"), Members: model.NewProcessSet("p", "q")},
		DeliveredUpTo: 9,
		SafeBound:     7,
		HighestSeen:   12,
		Obligations:   model.NewProcessSet("q"),
	}
	put(&s, wire.Data{ID: model.MessageID{Sender: "q", SenderSeq: 2}, Seq: 10, Payload: []byte("x")})
	s.Save(rec)
	got, log, _ := s.LoadChecked()
	if got.SenderSeq != 5 || got.DeliveredUpTo != 9 || got.SafeBound != 7 || got.HighestSeen != 12 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !got.Obligations.Contains("q") {
		t.Fatal("obligations lost")
	}
	if e := log.Get(10); e == nil || e.ID.SenderSeq != 2 || string(e.Payload) != "x" || log.Len() != 1 {
		t.Fatalf("Save must leave the log alone: Len=%d", log.Len())
	}
}

func TestSaveIsDeepCopyIn(t *testing.T) {
	var s Store
	seen := map[model.ProcessID]uint64{"p": 1}
	s.Save(Record{SeenSeqs: seen})
	// Mutate the caller's map after Save.
	seen["p"], seen["q"] = 9, 9
	if got := s.Load().SeenSeqs; len(got) != 1 || got["p"] != 1 {
		t.Fatalf("Save must deep-copy the record's maps, loaded %v", got)
	}
}

func TestLoadIsDeepCopyOut(t *testing.T) {
	var s Store
	put(&s, wire.Data{Seq: 1, Payload: []byte("a")})
	s.NoteSeen("p", 1)
	rec, log, _ := s.LoadChecked()
	rec.SeenSeqs["p"] = 9
	s.SeenSeqs()["p"] = 9
	e := log.Get(1)
	e.Payload[0] = 'z'
	log.Put(2)
	again, log2, _ := s.LoadChecked()
	e2 := log2.Get(1)
	if again.SeenSeqs["p"] != 1 || log2.Len() != 1 || string(e2.Payload) != "a" {
		t.Fatal("Load and LoadChecked must deep-copy so callers cannot mutate the store")
	}
}

func TestSaveReplacesWholeRecord(t *testing.T) {
	var s Store
	s.Save(Record{SenderSeq: 5, Obligations: model.NewProcessSet("q")})
	s.Save(Record{SenderSeq: 6})
	got := s.Load()
	if got.SenderSeq != 6 || !got.Obligations.IsEmpty() {
		t.Fatalf("Save should replace, got %+v", got)
	}
}

func TestSetScalarsPreservesLogAndPrimary(t *testing.T) {
	var s Store
	put(&s, wire.Data{Seq: 1, Payload: []byte("x")})
	s.Save(Record{
		LastPrimary:    model.Configuration{ID: model.RegularID(2, "p"), Members: model.NewProcessSet("p")},
		PrimaryAttempt: model.Configuration{ID: model.RegularID(3, "p"), Members: model.NewProcessSet("p")},
	})
	s.SetScalars(Record{
		SenderSeq:     7,
		JoinAttempt:   9,
		MaxRingSeq:    4,
		DeliveredUpTo: 1,
		SafeBound:     1,
		HighestSeen:   2,
		Obligations:   model.NewProcessSet("q"),
		// This must be ignored by SetScalars:
		LastPrimary: model.Configuration{ID: model.RegularID(9, "z")},
	})
	got := s.Load()
	if got.SenderSeq != 7 || got.JoinAttempt != 9 || got.MaxRingSeq != 4 {
		t.Fatalf("scalars not persisted: %+v", got)
	}
	if seqs := logSeqs(&s); !reflect.DeepEqual(seqs, []uint64{1}) {
		t.Fatalf("SetScalars must not touch the log: %v", seqs)
	}
	if got.LastPrimary.ID != model.RegularID(2, "p") || got.PrimaryAttempt.ID != model.RegularID(3, "p") {
		t.Fatalf("SetScalars must not touch primary records: %+v", got)
	}
	if !got.Obligations.Contains("q") {
		t.Fatal("obligations lost")
	}
}

func TestPutLogDeepCopiesAndAccumulates(t *testing.T) {
	var s Store
	payload := []byte("abc")
	put(&s, wire.Data{Seq: 5, Payload: payload})
	payload[0] = 'z'
	put(&s, wire.Data{Seq: 6})
	_, log, _ := s.LoadChecked()
	if log.Len() != 2 {
		t.Fatalf("log size %d, want 2", log.Len())
	}
	if string(log.Get(5).Payload) != "abc" {
		t.Fatal("PutLogBatch must deep-copy the payload")
	}
}

func TestClearLog(t *testing.T) {
	var s Store
	put(&s, wire.Data{Seq: 1})
	s.SetScalars(Record{SenderSeq: 3})
	s.ClearLog()
	got := s.Load()
	if seqs := logSeqs(&s); len(seqs) != 0 {
		t.Fatalf("log not cleared: %v", seqs)
	}
	if got.SenderSeq != 3 {
		t.Fatal("ClearLog must not touch scalars")
	}
}

// put persists each message as a write of its own.
func put(s *Store, ds ...wire.Data) {
	for i := range ds {
		s.PutLogBatch(ds[i : i+1])
	}
}

// window is an in-memory log based at base holding seqs, each entry's
// payload its own fresh buffer: what a process holds when it fails.
func window(ring model.ConfigID, base uint64, seqs ...uint64) *seqlog.Log {
	l := &seqlog.Log{}
	l.DropPrefix(base)
	for _, q := range seqs {
		d := wire.Data{ID: model.MessageID{Sender: "q", SenderSeq: q}, Ring: ring, Seq: q, Service: model.Safe, Payload: []byte{'m', byte(q)}}
		e, _ := l.Put(q)
		e.Set(&d)
	}
	return l
}

// TestSaveLogStoresADeepCopyOfTheWindow saves an in-memory window over a
// log already holding other entries: the loaded window has the saved
// base and exactly the saved entries, field for field, and writes
// through the source's payloads after the save do not reach the store.
func TestSaveLogStoresADeepCopyOfTheWindow(t *testing.T) {
	var s Store
	put(&s, wire.Data{Seq: 2, Payload: []byte("old")}, wire.Data{Seq: 9})
	ring := model.RegularID(4, "p")
	src := window(ring, 4, 5, 6, 8)
	s.SaveLog(ring, src, 8)
	for seq := src.Base() + 1; seq <= src.High(); seq++ {
		if e := src.Get(seq); e != nil {
			e.Payload[0] = 'z'
		}
	}
	_, got, errs := s.LoadChecked()
	if len(errs) != 0 || got.Base() != 4 || got.Len() != 3 {
		t.Fatalf("LoadChecked: base %d, %d entries, errors %v; want base 4, 3 entries, no errors", got.Base(), got.Len(), errs)
	}
	for _, q := range []uint64{5, 6, 8} {
		e := got.Get(q)
		want := wire.Data{ID: model.MessageID{Sender: "q", SenderSeq: q}, Ring: ring, Seq: q, Service: model.Safe, Payload: []byte{'m', byte(q)}}
		if e == nil || !reflect.DeepEqual(e.Data(ring), want) {
			t.Fatalf("entry %d loaded as %+v, want %+v", q, e, want)
		}
	}
}

// TestSaveLogFlipIsCaught rots a saved entry in place: the checksum the
// save computed catches it, and LoadChecked drops that entry alone.
func TestSaveLogFlipIsCaught(t *testing.T) {
	var s Store
	ring := model.RegularID(4, "p")
	s.SaveLog(ring, window(ring, 0, 1, 2, 3), 3)
	if n := s.FlipLogBits(1); n != 1 {
		t.Fatalf("FlipLogBits corrupted %d entries, want 1", n)
	}
	_, got, errs := s.LoadChecked()
	if len(errs) != 1 || got.Get(3) != nil || got.Len() != 2 {
		t.Fatalf("LoadChecked: %d entries, seq 3 present=%v, errors %v; want the rotted entry alone dropped", got.Len(), got.Get(3) != nil, errs)
	}
}

// TestSaveLogTearsTheLastPut: the record a torn write destroys is the
// last put the save names, and only while the saved window holds it
// above SafeBound.
func TestSaveLogTearsTheLastPut(t *testing.T) {
	ring := model.RegularID(4, "p")
	for _, c := range []struct {
		lastPut, safe uint64
		torn          bool
	}{
		{lastPut: 6, torn: true},
		{lastPut: 7},          // not in the window: torn already, or trimmed
		{lastPut: 0},          // nothing put since the store was empty
		{lastPut: 6, safe: 6}, // durable by the fault model's bound
	} {
		var s Store
		s.SetScalars(Record{SafeBound: c.safe})
		s.SaveLog(ring, window(ring, 0, 5, 6, 8), c.lastPut)
		want := []uint64{5, 6, 8}
		if c.torn {
			want = []uint64{5, 8}
		}
		if torn := s.TearLastWrite(); torn != c.torn || !reflect.DeepEqual(logSeqs(&s), want) {
			t.Fatalf("lastPut %d SafeBound %d: tear %v, log %v; want %v, %v", c.lastPut, c.safe, torn, logSeqs(&s), c.torn, want)
		}
	}
}

// ---------------------------------------------------------------------------
// Injectable corruption model.

func logWith(seqs ...uint64) *Store {
	s := &Store{}
	for _, q := range seqs {
		put(s, wire.Data{Seq: q, Payload: []byte("x")})
	}
	return s
}

// logSeqs lists the sequence numbers the store's log holds, in order.
func logSeqs(s *Store) []uint64 {
	var out []uint64
	for seq := s.log.Base() + 1; seq <= s.log.High(); seq++ {
		if s.log.Get(seq) != nil {
			out = append(out, seq)
		}
	}
	return out
}

func TestTearLastWriteDestroysMostRecentPut(t *testing.T) {
	s := logWith(1, 2, 3)
	if !s.TearLastWrite() {
		t.Fatal("tear should destroy the last put")
	}
	if got := logSeqs(s); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("log after tear = %v, want [1 2]", got)
	}
	// A second tear has nothing torn to destroy: the surviving entries
	// all committed before the racing write.
	if s.TearLastWrite() {
		t.Fatal("second tear destroyed a committed record")
	}
	if s.Corruptions() != 1 {
		t.Fatalf("Corruptions = %d, want 1", s.Corruptions())
	}
}

func TestTearLastWriteRespectsSafeBound(t *testing.T) {
	s := logWith(1, 2)
	rec := s.Load()
	rec.SafeBound = 2
	s.SetScalars(rec)
	if s.TearLastWrite() {
		t.Fatal("tear destroyed a record at or below SafeBound")
	}
	if got := logSeqs(s); len(got) != 2 {
		t.Fatalf("log = %v, want intact", got)
	}
}

func TestLoseLogSuffixDropsHighestAboveSafeBound(t *testing.T) {
	s := logWith(1, 2, 3, 4, 5)
	rec := s.Load()
	rec.SafeBound = 2
	s.SetScalars(rec)
	if n := s.LoseLogSuffix(2); n != 2 {
		t.Fatalf("lost %d records, want 2", n)
	}
	if got := logSeqs(s); !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("log after suffix loss = %v, want [1 2 3]", got)
	}
	// Asking for more than remains above the bound stops at the bound.
	if n := s.LoseLogSuffix(10); n != 1 {
		t.Fatalf("lost %d records, want 1 (only seq 3 above bound)", n)
	}
	if got := logSeqs(s); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("log = %v, want safe prefix [1 2]", got)
	}
}

func TestLoseLogSuffixOnEmptyLog(t *testing.T) {
	s := &Store{}
	if n := s.LoseLogSuffix(3); n != 0 {
		t.Fatalf("lost %d from empty log", n)
	}
	if s.TearLastWrite() {
		t.Fatal("tear on empty log")
	}
}

func TestClearLogInvalidatesTear(t *testing.T) {
	s := logWith(7)
	s.ClearLog()
	if s.TearLastWrite() {
		t.Fatal("tear after ClearLog destroyed something")
	}
}

// ---------------------------------------------------------------------------
// The window bound and the word-wise checksum.

func TestLogWindowAtAndPastTheBound(t *testing.T) {
	var s Store
	s.SetScalars(Record{TrimmedUpTo: 10}) // the window is relative to the watermark
	put(&s, wire.Data{Seq: 10 + seqlog.MaxSpan, Payload: []byte("at")})
	put(&s, wire.Data{Seq: 10 + seqlog.MaxSpan + 1, Payload: []byte("past")})
	if got := logSeqs(&s); !reflect.DeepEqual(got, []uint64{10 + seqlog.MaxSpan}) {
		t.Fatalf("log = %v, want only the entry at the bound", got)
	}
	_, log, errs := s.LoadChecked()
	if log.Len() != 1 || len(errs) != 1 {
		t.Fatalf("LoadChecked = %d entries, errors %v; want 1 entry and the rejection reported once", log.Len(), errs)
	}
	// The refused put never became the last-put record: a torn write
	// still destroys the entry at the bound.
	if !s.TearLastWrite() || len(logSeqs(&s)) != 0 {
		t.Fatalf("tear after a refused put: log = %v", logSeqs(&s))
	}
	// Once the watermark advances the same entry is inside the window.
	s.SetScalars(Record{TrimmedUpTo: 11})
	put(&s, wire.Data{Seq: 10 + seqlog.MaxSpan + 1, Payload: []byte("past")})
	if got := logSeqs(&s); !reflect.DeepEqual(got, []uint64{10 + seqlog.MaxSpan + 1}) {
		t.Fatalf("log = %v, want the entry admitted after the trim", got)
	}
	// A new log forgets the old rejections.
	s.ClearLog()
	if _, _, errs := s.LoadChecked(); len(errs) != 0 {
		t.Fatalf("rejections survived ClearLog: %v", errs)
	}
}

func TestFarOffKeyDoesNotSizeTheLog(t *testing.T) {
	var s Store
	_, got := allocsOf(func() {
		// Sequence numbers no window could hold, and a storage-damaged
		// HighestSeen ahead of normal puts.
		s.Save(Record{HighestSeen: 1 << 60})
		put(&s, wire.Data{Seq: 1, Payload: []byte("x")})
		s.PutLogBatch([]wire.Data{{Seq: 99999}, {Seq: 1 << 50}})
		put(&s, wire.Data{Seq: 2}, wire.Data{Seq: 1 << 40})
	})
	if got > 256<<10 {
		t.Fatalf("far-off keys allocated %d bytes; the window must refuse them, not size for them", got)
	}
	if seqs := logSeqs(&s); !reflect.DeepEqual(seqs, []uint64{1, 2}) {
		t.Fatalf("log = %v, want [1 2]", seqs)
	}
	if _, _, errs := s.LoadChecked(); len(errs) != 1 {
		t.Fatalf("errors = %v, want the three rejections reported as one counted error", errs)
	}
}

// TestChecksumDetectsEverySingleBitFlip flips each bit of every field the
// checksum covers — the slot's fields and the log's ring — at payload
// lengths on both sides of the eight-byte word boundary, and requires the
// hash to move.
func TestChecksumDetectsEverySingleBitFlip(t *testing.T) {
	sumOf := func(d *wire.Data) uint64 {
		var e seqlog.Entry
		e.Set(d)
		return checksum(&e, &d.Ring)
	}
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 64, 1024} {
		d := wire.Data{
			ID:      model.MessageID{Sender: "a-long-process-name", SenderSeq: 77},
			Ring:    model.RegularID(9, "p"),
			Seq:     1234,
			Service: model.Safe,
			Payload: make([]byte, n),
		}
		for i := range d.Payload {
			d.Payload[i] = byte(31 * i)
		}
		want := sumOf(&d)
		differs := func(what string) {
			t.Helper()
			if sumOf(&d) == want {
				t.Fatalf("payload %d B: flipping %s left the checksum unchanged", n, what)
			}
		}
		for i := range d.Payload {
			for b := 0; b < 8; b++ {
				d.Payload[i] ^= 1 << b
				differs(fmt.Sprintf("payload byte %d bit %d", i, b))
				d.Payload[i] ^= 1 << b
			}
		}
		sender := []byte(d.ID.Sender)
		for i := range sender {
			for b := 0; b < 8; b++ {
				sender[i] ^= 1 << b
				d.ID.Sender = model.ProcessID(sender)
				differs(fmt.Sprintf("sender byte %d bit %d", i, b))
				sender[i] ^= 1 << b
			}
		}
		d.ID.Sender = model.ProcessID(sender)
		for b := 0; b < 64; b++ {
			for name, f := range map[string]*uint64{"SenderSeq": &d.ID.SenderSeq, "Seq": &d.Seq, "Ring.Seq": &d.Ring.Seq} {
				*f ^= 1 << b
				differs(fmt.Sprintf("%s bit %d", name, b))
				*f ^= 1 << b
			}
		}
		d.Service ^= 1
		differs("Service bit 0")
		d.Service ^= 1
		if n > 0 {
			// One byte fewer (a zero byte at n = 1): the length is covered.
			d.Payload = d.Payload[:n-1]
			differs("the payload length")
		}
	}
}
