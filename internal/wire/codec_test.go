package wire

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/model"
)

var (
	testRing  = model.RegularID(7, "p01")
	testTrans = model.TransitionalID(model.RegularID(9, "p01"), model.RegularID(7, "p03"))
)

// sampleMessages covers every kind, with both populated and edge-shaped
// values; it doubles as the fuzz seed corpus.
func sampleMessages() []Message {
	procs := []model.ProcessID{"p01", "p02", "p03"}
	return []Message{
		Data{
			ID:      model.MessageID{Sender: "p02", SenderSeq: 41},
			Ring:    testRing,
			Seq:     129,
			Service: model.Agreed,
			Payload: []byte("hello world"),
		},
		Data{
			ID:      model.MessageID{Sender: "p01", SenderSeq: 1},
			Ring:    testTrans,
			Seq:     1,
			Service: model.Safe,
			Retrans: true,
		},
		Data{}, // zero message round-trips too
		DataBatch{
			Ring: testRing,
			Msgs: []Data{
				{
					ID:      model.MessageID{Sender: "p01", SenderSeq: 9},
					Ring:    testRing,
					Seq:     10,
					Service: model.Agreed,
					Payload: []byte("a"),
				},
				{
					ID:      model.MessageID{Sender: "p03", SenderSeq: 2},
					Ring:    testRing,
					Seq:     11,
					Service: model.Safe,
					Retrans: true,
				},
			},
		},
		DataBatch{Ring: testRing},
		// Minimum-size elements: empty sender, zero fields, no payload.
		DataBatch{Msgs: make([]Data, 3)},
		Token{
			Ring:    testRing,
			TokenID: 88,
			Seq:     1029,
			Aru:     1017,
			AruID:   "p02",
			Rtr:     []SeqRange{{Lo: 1018, Hi: 1020}, {Lo: 1025, Hi: 1025}},
		},
		Token{Ring: testRing, TokenID: 1},
		Join{
			Sender:     "p02",
			Alive:      []model.ProcessID{"p01", "p02"},
			Failed:     []model.ProcessID{"p03"},
			MaxRingSeq: 12,
			Attempt:    3,
		},
		Join{Sender: "p01"},
		Commit{NewRing: model.RegularID(13, "p01"), Members: procs, Attempt: 4},
		CommitAck{Ring: model.RegularID(13, "p01"), Sender: "p03", Attempt: 4},
		Install{NewRing: model.RegularID(13, "p01"), Members: procs, Attempt: 4},
		Exchange{
			Ring:          model.RegularID(13, "p01"),
			Sender:        "p02",
			OldRing:       testRing,
			OldMembers:    procs,
			MyAru:         1017,
			Have:          []uint64{1019, 1022},
			SafeBound:     1011,
			HighestSeen:   1029,
			DeliveredUpTo: 1015,
			Obligations:   []model.ProcessID{"p01", "p03"},
			SeenSeqs:      []SeenSeq{{Proc: "p01", Seq: 40}, {Proc: "p02", Seq: 41}},
		},
		Exchange{Ring: model.RegularID(2, "p09"), Sender: "p09", OldRing: model.ConfigID{}},
		RecoveryDone{Ring: model.RegularID(13, "p01"), Sender: "p01", OldRing: testRing},
	}
}

// dataEqual compares Data messages semantically (payload by bytes, so a
// nil and an empty payload agree).
func dataEqual(a, b Data) bool {
	return a.ID == b.ID && a.Ring == b.Ring && a.Seq == b.Seq &&
		a.Service == b.Service && a.Retrans == b.Retrans &&
		bytes.Equal(a.Payload, b.Payload)
}

// messagesEqual compares any two wire messages semantically.
func messagesEqual(a, b Message) bool {
	switch av := a.(type) {
	case Data:
		bv, ok := b.(Data)
		return ok && dataEqual(av, bv)
	case DataBatch:
		bv, ok := b.(DataBatch)
		if !ok || av.Ring != bv.Ring || len(av.Msgs) != len(bv.Msgs) {
			return false
		}
		for i := range av.Msgs {
			if !dataEqual(av.Msgs[i], bv.Msgs[i]) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a, b)
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for _, m := range sampleMessages() {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%v): %v", m, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(Encode(%v)): %v", m, err)
		}
		if !messagesEqual(m, got) {
			t.Fatalf("round trip mismatch:\n sent %#v\n got  %#v", m, got)
		}
	}
}

func TestDecoderInternsAcrossMessages(t *testing.T) {
	d := NewDecoder()
	msg := sampleMessages()[0].(Data)
	b, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	var m1, m2 Data
	if err := d.DecodeData(b, &m1); err != nil {
		t.Fatal(err)
	}
	if err := d.DecodeData(b, &m2); err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(string(m1.ID.Sender)) != unsafe.StringData(string(m2.ID.Sender)) {
		t.Fatalf("sender %q not interned: two decodes hold two copies", m1.ID.Sender)
	}
	if !dataEqual(m1, msg) || !dataEqual(m2, msg) {
		t.Fatalf("interned decode mismatch")
	}
}

func TestDecodeErrorsNotPanics(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},  // zero kind
		{42}, // unknown kind
		{byte(FrameData)},
		{byte(FrameToken), 1}, // truncated config
		{byte(FrameJoin), 0, 0xff, 0xff, 0xff, 0xff, 0xff}, // huge count
	}
	for _, m := range sampleMessages() {
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		// Every truncation of every valid message must error cleanly
		// or decode to something (prefix happens to be valid) — never
		// panic.
		for i := 0; i < len(b); i++ {
			cases = append(cases, b[:i])
		}
		// And a few single-byte corruptions.
		for i := 0; i < len(b); i += 3 {
			c := append([]byte(nil), b...)
			c[i] ^= 0x41
			cases = append(cases, c)
		}
	}
	d := NewDecoder()
	for _, c := range cases {
		if _, err := d.Decode(c); err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode %x: unexpected error class %v", c, err)
			}
		}
	}
}

func TestEncodeRejectsOversized(t *testing.T) {
	long := model.ProcessID(strings.Repeat("x", MaxProcIDLen+1))
	cases := []Message{
		Data{ID: model.MessageID{Sender: long}},
		Token{AruID: long},
		Join{Sender: "p", Alive: make([]model.ProcessID, MaxMembers+1)},
		CommitAck{Ring: model.ConfigID{Kind: 9}},
	}
	for _, m := range cases {
		if _, err := AppendMessage(nil, m); !errors.Is(err, ErrUnencodable) {
			t.Fatalf("AppendMessage(%T) err = %v, want ErrUnencodable", m, err)
		}
	}
}

// TestDataBatchFrameSize pins the size of a loaded ring's typical batch:
// 64 Agreed messages of 64 B from the four members of a ring, deep into a
// run. The ring is a per-packet fact, carried once: kind 1, ring 7, count
// 1, then 64 elements of sender 4, senderSeq 3, seq 3, service 1, flags 1,
// payload length 1, payload 64 — 77 bytes each, against the 84 of a
// standalone data frame's body.
func TestDataBatchFrameSize(t *testing.T) {
	ring := model.RegularID(300, "p01")
	b := DataBatch{Ring: ring, Msgs: make([]Data, 64)}
	for i := range b.Msgs {
		b.Msgs[i] = Data{
			ID:      model.MessageID{Sender: []model.ProcessID{"p01", "p02", "p03", "p04"}[i%4], SenderSeq: 125_000 + uint64(i)},
			Ring:    ring,
			Seq:     500_000 + uint64(i),
			Service: model.Agreed,
			Payload: make([]byte, 64),
		}
	}
	enc, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 7 + 1 + 64*77; len(enc) != want {
		t.Fatalf("64 x 64 B batch frame is %d bytes, want %d", len(enc), want)
	}
	got, err := Decode(enc)
	if err != nil || !messagesEqual(b, got) {
		t.Fatalf("batch round trip: err %v, equal %v", err, messagesEqual(b, got))
	}
}

// TestDecodedBatchElementsCarryRing: the ring travels once per batch
// frame, and the decoder hands it to every element, which is the
// invariant a receiver relies on to test the ring once per batch.
func TestDecodedBatchElementsCarryRing(t *testing.T) {
	b := DataBatch{Ring: testRing, Msgs: make([]Data, 3)}
	for i := range b.Msgs {
		b.Msgs[i] = Data{ID: model.MessageID{Sender: "p01", SenderSeq: uint64(i + 1)}, Ring: testRing, Seq: uint64(i + 1)}
	}
	enc, err := Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewDecoder().Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	batch := got.(DataBatch)
	if batch.Ring != testRing || len(batch.Msgs) != len(b.Msgs) {
		t.Fatalf("decoded %+v", batch)
	}
	for i, d := range batch.Msgs {
		if d.Ring != batch.Ring {
			t.Errorf("element %d on ring %v, batch on %v", i, d.Ring, batch.Ring)
		}
	}
}

// TestMixedRingBatchUnencodable: a batch frame carries one ring for all
// its elements, so an element on another ring cannot be encoded in it.
func TestMixedRingBatchUnencodable(t *testing.T) {
	b := DataBatch{Ring: testRing, Msgs: []Data{
		{ID: model.MessageID{Sender: "p01", SenderSeq: 1}, Ring: testRing, Seq: 1},
		{ID: model.MessageID{Sender: "p02", SenderSeq: 1}, Ring: testTrans, Seq: 2},
	}}
	if _, err := AppendMessage(nil, b); !errors.Is(err, ErrUnencodable) {
		t.Fatalf("mixed-ring batch: err = %v, want ErrUnencodable", err)
	}
}

// TestMinimumElementBatchRoundTrips: the decoder's bound on the element
// count (no allocation the input cannot back) must still admit a batch
// made entirely of the smallest elements.
func TestMinimumElementBatchRoundTrips(t *testing.T) {
	for _, n := range []int{1, 2, 9, 100, MaxMembers} {
		b := DataBatch{Msgs: make([]Data, n)}
		enc, err := Encode(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%d minimum elements (%d bytes): %v", n, len(enc), err)
		}
		if !messagesEqual(b, got) {
			t.Fatalf("%d minimum elements: round trip mismatch", n)
		}
		// One byte short of the last element is truncated, not accepted.
		if _, err := Decode(enc[:len(enc)-1]); err == nil {
			t.Fatalf("%d minimum elements: a truncated frame decoded", n)
		}
	}
}

// TestDataFrameSize pins the size of a loaded ring's typical data frame: a
// 64 B Agreed message from p02 on a four-member ring, deep into a run. The
// frame is the header, the sequence number and the payload — kind 1,
// sender 4, senderSeq 3, ring 7, seq 3, service 1, flags 1, payload
// length 1, payload 64 — and nothing per member.
func TestDataFrameSize(t *testing.T) {
	d := Data{
		ID:      model.MessageID{Sender: "p02", SenderSeq: 125_000},
		Ring:    model.RegularID(300, "p01"),
		Seq:     500_000,
		Service: model.Agreed,
		Payload: make([]byte, 64),
	}
	b, err := AppendData(nil, &d)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 85 {
		t.Fatalf("64 B data frame is %d bytes, want 85", len(b))
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	b, err := Encode(Token{Ring: testRing, TokenID: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(b, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: err = %v, want ErrCorrupt", err)
	}
}

func TestPayloadAliasesInput(t *testing.T) {
	msg := Data{ID: model.MessageID{Sender: "p", SenderSeq: 1}, Payload: []byte("abcd")}
	b, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	var out Data
	if err := NewDecoder().DecodeData(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Payload) != 4 || &out.Payload[0] != &b[len(b)-4] {
		t.Fatalf("payload was copied, want alias of the input tail")
	}
}

// TestWireDataCodecZeroAlloc is the noalloc gate for the Data hot path:
// steady-state encode and decode of a Data message must not allocate
// (the decoder's process-identifier interning amortises to zero).
func TestWireDataCodecZeroAlloc(t *testing.T) {
	msg := sampleMessages()[0].(Data)
	buf := make([]byte, 0, 256)
	var err error
	if allocs := testing.AllocsPerRun(2000, func() {
		buf, err = AppendData(buf[:0], &msg)
	}); err != nil || allocs > 0 {
		t.Fatalf("encode: %v allocs/op (err %v), want 0", allocs, err)
	}
	b, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder()
	var out Data
	if allocs := testing.AllocsPerRun(2000, func() {
		err = d.DecodeData(b, &out)
	}); err != nil || allocs > 0.05 {
		t.Fatalf("decode: %v allocs/op (err %v), want ~0", allocs, err)
	}
}
