package stable

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/seqlog"
	"repro/internal/wire"
)

// fuzzRecord builds a deterministic record and log from the fuzz
// arguments: entries log records with payloads derived from seed, plus
// every scalar, set and map field populated so aliasing anywhere is
// visible.
func fuzzRecord(seed uint64, entries int) (Record, []wire.Data) {
	cfg := model.Configuration{
		ID:      model.RegularID(3+seed%5, "p"),
		Members: model.NewProcessSet("p", "q", "r"),
	}
	log := make([]wire.Data, entries)
	for i := range log {
		seq := uint64(i + 1)
		log[i] = wire.Data{
			ID:      model.MessageID{Sender: model.ProcessID(fmt.Sprintf("p%d", i%3)), SenderSeq: seq + seed%7},
			Ring:    cfg.ID,
			Seq:     seq,
			Service: model.Agreed,
			Payload: []byte{byte(seed >> 8), byte(seq), byte(seed)},
		}
	}
	return Record{
		SenderSeq:     seed % 1000,
		JoinAttempt:   seed % 17,
		MaxRingSeq:    3 + seed%5,
		LastRegular:   cfg,
		DeliveredUpTo: uint64(entries / 2),
		SafeBound:     uint64(entries / 2),
		HighestSeen:   uint64(entries),
		Obligations:   model.NewProcessSet("p", "q"),
		SeenSeqs:      map[model.ProcessID]uint64{"p": seed % 100, "q": 1 + seed%3},
	}, log
}

// corrupt applies one corruption mode to the store, mirroring the
// chaos engine's crash-time fault switch.
func corrupt(s *Store, mode uint8, n int) {
	switch mode % 7 {
	case 1:
		s.TearLastWrite()
	case 2:
		s.LoseLogSuffix(n)
	case 3:
		s.WrapSenderSeq()
	case 4:
		s.RegressRingSeq()
	case 5:
		s.PoisonObligations(n)
	case 6:
		s.FlipLogBits(n)
	}
}

// mutateDeep writes through every reachable reference of a loaded record
// and window; if any of them aliases store-owned memory, the next load
// changes.
func mutateDeep(r *Record, log *seqlog.Log) {
	for seq := log.Base() + 1; seq <= log.High(); seq++ {
		if e := log.Get(seq); e != nil {
			if len(e.Payload) > 0 {
				e.Payload[0] ^= 0xff
			}
			e.ID.SenderSeq += 1000
		}
	}
	if e, _ := log.Put(log.Base() + 99); e != nil {
		e.Set(&wire.Data{Seq: log.Base() + 99})
	}
	for p := range r.SeenSeqs {
		r.SeenSeqs[p] += 1000
	}
	r.SeenSeqs["intruder"] = 1
	r.SenderSeq += 1000
}

// FuzzStoreRoundTrip checks the store's read-after-write isolation
// invariant under every corruption mode: loading is a deep copy (no
// loaded record aliases store memory), loads are repeatable, and
// LoadChecked is self-healing — persisting its cleaned output yields a
// record that re-loads with no further rejections.
func FuzzStoreRoundTrip(f *testing.F) {
	for mode := uint8(0); mode <= 6; mode++ {
		f.Add(uint64(42), mode, uint8(1))
		f.Add(uint64(7777), mode, uint8(3))
	}
	f.Add(uint64(0), uint8(6), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, mode uint8, n uint8) {
		entries := int(2 + seed%9)
		var s Store
		rec, log := fuzzRecord(seed, entries)
		s.Save(rec)
		if seed%2 == 0 {
			s.PutLogBatch(log)
		} else {
			// The other half takes the crash-time write path: the
			// window a process held, one entry past the batch, whose
			// last put tear/flip can hit.
			var mem seqlog.Log
			for _, d := range append(log, wire.Data{
				ID:  model.MessageID{Sender: "q", SenderSeq: seed},
				Seq: uint64(entries + 1), Payload: []byte{byte(seed)},
			}) {
				e, _ := mem.Put(d.Seq)
				e.Set(&d)
			}
			s.SaveLog(rec.LastRegular.ID, &mem, uint64(entries+1))
		}
		corrupt(&s, mode, int(n%8))

		pristine, pristineLog, _ := s.LoadChecked()
		loaded, loadedLog, _ := s.LoadChecked()
		mutateDeep(&loaded, loadedLog)
		if got, gotLog, _ := s.LoadChecked(); !reflect.DeepEqual(got, pristine) || !reflect.DeepEqual(gotLog, pristineLog) {
			t.Fatalf("mutating a loaded record changed the store (mode %d):\nbefore: %+v\nafter:  %+v",
				mode%7, pristine, got)
		}

		recA, logA, errsA := s.LoadChecked()
		mutateDeep(&recA, logA)
		recB, logB, errsB := s.LoadChecked()
		if len(errsA) != len(errsB) {
			t.Fatalf("LoadChecked not repeatable: %d then %d errors", len(errsA), len(errsB))
		}
		for i := range errsA {
			if errsA[i].Error() != errsB[i].Error() {
				t.Fatalf("LoadChecked error order unstable: %q vs %q", errsA[i], errsB[i])
			}
		}

		// Self-healing: a record and window cleaned by LoadChecked
		// re-persist, as a restarted process saves the window it loaded
		// when it fails again, and re-load with zero rejections.
		var s2 Store
		s2.Save(recB)
		s2.SaveLog(recB.LastRegular.ID, logB, 0)
		if rec2, _, errs2 := s2.LoadChecked(); len(errs2) != 0 {
			t.Fatalf("cleaned record rejected again: %v (record %+v)", errs2, rec2)
		}
	})
}
