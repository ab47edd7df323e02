package stable

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/seqlog"
	"repro/internal/vclock"
	"repro/internal/wire"
)

func TestZeroStoreLoadsEmptyRecord(t *testing.T) {
	var s Store
	r := s.Load()
	if r.SenderSeq != 0 || r.Log != nil || !r.LastRegular.ID.IsZero() {
		t.Fatalf("zero store should load zero record, got %+v", r)
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
		Log: map[uint64]wire.Data{
			10: {ID: model.MessageID{Sender: "q", SenderSeq: 2}, Seq: 10, Payload: []byte("x"), VC: vclock.NewStamp(vclock.VC{"q": 2})},
		},
		Obligations: model.NewProcessSet("q"),
	}
	s.Save(rec)
	got := s.Load()
	if got.SenderSeq != 5 || got.DeliveredUpTo != 9 || got.SafeBound != 7 || got.HighestSeen != 12 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !got.Obligations.Contains("q") {
		t.Fatal("obligations lost")
	}
	if got.Log[10].ID.SenderSeq != 2 || string(got.Log[10].Payload) != "x" {
		t.Fatalf("log lost: %+v", got.Log)
	}
}

func TestSaveIsDeepCopyIn(t *testing.T) {
	var s Store
	log := map[uint64]wire.Data{1: {Seq: 1, Payload: []byte("a")}}
	s.Save(Record{Log: log})
	// Mutate the caller's map and payload after Save.
	log[2] = wire.Data{Seq: 2}
	log1 := log[1]
	log1.Payload[0] = 'z'
	got := s.Load()
	if len(got.Log) != 1 {
		t.Fatal("Save must deep-copy the log map")
	}
	if string(got.Log[1].Payload) != "a" {
		t.Fatal("Save must deep-copy payloads")
	}
}

func TestLoadIsDeepCopyOut(t *testing.T) {
	var s Store
	s.Save(Record{Log: map[uint64]wire.Data{1: {Seq: 1, Payload: []byte("a"), VC: vclock.NewStamp(vclock.VC{"p": 1})}}})
	got := s.Load()
	got.Log[2] = wire.Data{Seq: 2}
	g1 := got.Log[1]
	g1.Payload[0] = 'z'
	g1.VC.D[0] = 99
	again := s.Load()
	if len(again.Log) != 1 || string(again.Log[1].Payload) != "a" || again.Log[1].VC.Get("p") != 1 {
		t.Fatal("Load must deep-copy so callers cannot mutate the store")
	}
}

func TestWritesCounter(t *testing.T) {
	var s Store
	if s.Writes() != 0 {
		t.Fatal("fresh store should report zero writes")
	}
	s.Save(Record{})
	s.Save(Record{})
	if s.Writes() != 2 {
		t.Fatalf("Writes() = %d, want 2", s.Writes())
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
	s.Save(Record{
		Log:            map[uint64]wire.Data{1: {Seq: 1, Payload: []byte("x")}},
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
		// These must be ignored by SetScalars:
		Log:         map[uint64]wire.Data{99: {Seq: 99}},
		LastPrimary: model.Configuration{ID: model.RegularID(9, "z")},
	})
	got := s.Load()
	if got.SenderSeq != 7 || got.JoinAttempt != 9 || got.MaxRingSeq != 4 {
		t.Fatalf("scalars not persisted: %+v", got)
	}
	if len(got.Log) != 1 || got.Log[1].Seq != 1 {
		t.Fatalf("SetScalars must not touch the log: %v", got.Log)
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
	s.PutLog(wire.Data{Seq: 5, Payload: payload, VC: vclock.NewStamp(vclock.VC{"p": 1})})
	payload[0] = 'z'
	s.PutLog(wire.Data{Seq: 6})
	got := s.Load()
	if len(got.Log) != 2 {
		t.Fatalf("log size %d, want 2", len(got.Log))
	}
	if string(got.Log[5].Payload) != "abc" {
		t.Fatal("PutLog must deep-copy the payload")
	}
	if got.Log[5].VC.Get("p") != 1 {
		t.Fatal("PutLog must keep the vector clock")
	}
}

func TestClearLog(t *testing.T) {
	var s Store
	s.PutLog(wire.Data{Seq: 1})
	s.SetScalars(Record{SenderSeq: 3})
	s.ClearLog()
	got := s.Load()
	if got.Log != nil {
		t.Fatalf("log not cleared: %v", got.Log)
	}
	if got.SenderSeq != 3 {
		t.Fatal("ClearLog must not touch scalars")
	}
	if s.Writes() != 3 {
		t.Fatalf("Writes() = %d, want 3", s.Writes())
	}
}

// ---------------------------------------------------------------------------
// Injectable corruption model.

func logWith(seqs ...uint64) *Store {
	s := &Store{}
	for _, q := range seqs {
		s.PutLog(wire.Data{Seq: q, Payload: []byte("x")})
	}
	return s
}

func logSeqs(s *Store) []uint64 {
	var out []uint64
	for q := range s.Load().Log {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
	s.PutLog(wire.Data{Seq: 10 + seqlog.MaxSpan, Payload: []byte("at")})
	s.PutLog(wire.Data{Seq: 10 + seqlog.MaxSpan + 1, Payload: []byte("past")})
	if got := logSeqs(&s); !reflect.DeepEqual(got, []uint64{10 + seqlog.MaxSpan}) {
		t.Fatalf("log = %v, want only the entry at the bound", got)
	}
	rec, errs := s.LoadChecked()
	if len(rec.Log) != 1 || len(errs) != 1 {
		t.Fatalf("LoadChecked = %d entries, errors %v; want 1 entry and the rejection reported once", len(rec.Log), errs)
	}
	// The refused put never became the last-put record: a torn write
	// still destroys the entry at the bound.
	if !s.TearLastWrite() || len(logSeqs(&s)) != 0 {
		t.Fatalf("tear after a refused put: log = %v", logSeqs(&s))
	}
	// Once the watermark advances the same entry is inside the window.
	s.SetScalars(Record{TrimmedUpTo: 11})
	s.PutLog(wire.Data{Seq: 10 + seqlog.MaxSpan + 1, Payload: []byte("past")})
	if got := logSeqs(&s); !reflect.DeepEqual(got, []uint64{10 + seqlog.MaxSpan + 1}) {
		t.Fatalf("log = %v, want the entry admitted after the trim", got)
	}
	// A new log forgets the old rejections.
	s.ClearLog()
	if _, errs := s.LoadChecked(); len(errs) != 0 {
		t.Fatalf("rejections survived ClearLog: %v", errs)
	}
}

func TestFarOffKeyDoesNotSizeTheLog(t *testing.T) {
	var s Store
	_, got := allocsOf(func() {
		// FuzzStoreRoundTrip's alien key, a key no window could hold, and
		// a storage-damaged HighestSeen ahead of a normal put.
		s.Save(Record{HighestSeen: 1 << 60, Log: map[uint64]wire.Data{
			1:       {Seq: 1, Payload: []byte("x")},
			99999:   {Seq: 99999},
			1 << 50: {Seq: 1 << 50},
		}})
		s.PutLog(wire.Data{Seq: 2})
		s.PutLog(wire.Data{Seq: 1 << 40})
	})
	if got > 256<<10 {
		t.Fatalf("far-off keys allocated %d bytes; the window must refuse them, not size for them", got)
	}
	if seqs := logSeqs(&s); !reflect.DeepEqual(seqs, []uint64{1, 2}) {
		t.Fatalf("log = %v, want [1 2]", seqs)
	}
	if _, errs := s.LoadChecked(); len(errs) != 1 {
		t.Fatalf("errors = %v, want the three rejections reported as one counted error", errs)
	}
}

// TestChecksumDetectsEverySingleBitFlip flips each bit of every field the
// checksum covers, at payload lengths on both sides of the eight-byte
// word boundary, and requires the hash to move.
func TestChecksumDetectsEverySingleBitFlip(t *testing.T) {
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
		want := checksum(&d)
		differs := func(what string) {
			t.Helper()
			if checksum(&d) == want {
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
