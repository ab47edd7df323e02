package wire

import "testing"

// FuzzWireRoundTrip feeds arbitrary bytes to the decoder. Any input the
// decoder accepts must re-encode and decode to the same message (the
// codec is canonical up to varint minimality, which strict decode
// enforces by comparing decodes, not bytes), and no input — accepted or
// rejected — may panic or over-read.
func FuzzWireRoundTrip(f *testing.F) {
	for _, m := range sampleMessages() {
		if b, err := Encode(m); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{byte(FrameToken), 0})
	// An element that still carries its ring, as batch elements once
	// did: the ring's kind and sequence bytes now read as the element's
	// sequence number and service, and its length byte is no valid flags.
	f.Add([]byte{byte(FrameDataBatch), 1, 7, 3, 'p', '0', '1', 1, 3, 'p', '0', '2', 5, 1, 7, 3, 'p', '0', '1', 10, 1, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		d := NewDecoder()
		m1, err := d.Decode(b)
		if err != nil {
			return
		}
		enc, err := AppendMessage(nil, m1)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v\ninput %x\nmsg %#v", err, b, m1)
		}
		m2, err := NewDecoder().Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v\ninput %x\nencoded %x", err, b, enc)
		}
		if !messagesEqual(m1, m2) {
			t.Fatalf("round trip disagreement:\ninput  %x\nfirst  %#v\nsecond %#v", b, m1, m2)
		}
	})
}
