// Binary codec for the protocol messages.
//
// Until this codec existed, protocol traffic never left the process:
// the simulator and the live hub hand shared Go structs to every
// receiver. A real transport needs bytes, and the encode/decode pair
// sits on the same per-message hot path the batching and arena work
// flattened — so the codec follows the internal/groups envelope style:
// a kind byte, unsigned varints for every integer, length-prefixed
// identifiers, and the data payload aliasing the input buffer rather
// than being copied out of it.
//
// Layouts (all integers unsigned varints; proc = len-prefixed process
// identifier; cfg = configuration identifier as documented at
// appendConfigID):
//
//	data         k=1  | body
//	data_batch   k=2  | cfg ring | n elem*
//	token        k=3  | cfg ring | tokenID seq aru | proc aruID | n (lo hi-lo)*
//	join         k=4  | proc sender | n proc* alive | n proc* failed | maxRingSeq attempt
//	commit       k=5  | cfg newRing | n proc* members | attempt
//	commit_ack   k=6  | cfg ring | proc sender | attempt
//	install      k=7  | cfg newRing | n proc* members | attempt
//	exchange     k=8  | cfg ring | proc sender | cfg oldRing | n proc* oldMembers
//	             | myAru | n have* | safeBound highestSeen deliveredUpTo
//	             | n proc* obligations | n (proc seq)* seenSeqs
//	done         k=9  | cfg ring | proc sender | cfg oldRing
//
//	body = proc sender | senderSeq | cfg ring | seq | service | flags
//	       | len payload
//	elem = proc sender | senderSeq | seq | service | flags | len payload
//
// A data body is what the Totem cost model prices a data message at: a
// header, the sequence number and the payload. It carries no per-member
// causality vector: the ring's total order already implies causal order,
// and the specification checker derives the precedes relation from the
// history's own send and deliver events (DESIGN.md §8). The ring is a
// per-packet fact: a batch element is a body without it, and decodes with
// the batch's ring, so every element of an encodable batch is on the
// batch's ring (a mixed batch is ErrUnencodable). The smallest element is
// six bytes: an empty sender and five one-byte fields.
//
// Decoding is strict and total: truncated or corrupt input yields an
// error, never a panic (the nopanic analyzer polices this package), never
// an allocation proportional to a length field the input cannot back, and
// — because flags, configuration kinds and retransmission ranges are
// validated — decode(encode(decode(b))) always agrees with decode(b)
// (FuzzWireRoundTrip pins this).
//
// A Decoder interns process identifiers keyed by their raw encoded bytes,
// so a repeat identifier resolves with one map probe and zero
// allocations. Decoded payloads alias the input buffer, which is
// immutable after handoff, per the package contract above.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/model"
)

// FrameKind tags the message type (byte 0 of every encoded message).
type FrameKind byte

const (
	// FrameData is a Data message.
	FrameData FrameKind = 1
	// FrameDataBatch is a DataBatch.
	FrameDataBatch FrameKind = 2
	// FrameToken is a Token.
	FrameToken FrameKind = 3
	// FrameJoin is a Join.
	FrameJoin FrameKind = 4
	// FrameCommit is a Commit.
	FrameCommit FrameKind = 5
	// FrameCommitAck is a CommitAck.
	FrameCommitAck FrameKind = 6
	// FrameInstall is an Install.
	FrameInstall FrameKind = 7
	// FrameExchange is an Exchange.
	FrameExchange FrameKind = 8
	// FrameRecoveryDone is a RecoveryDone.
	FrameRecoveryDone FrameKind = 9
)

// Codec limits. Honest encoders never approach them; they bound what a
// decoder will allocate for input it has not yet validated.
const (
	// MaxProcIDLen bounds a process identifier on the wire.
	MaxProcIDLen = 256
	// MaxMembers bounds every member list (join sets, ring memberships,
	// obligation sets).
	MaxMembers = 4096
)

// Codec errors.
var (
	// ErrTruncated reports input that ends inside a field.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrCorrupt reports input that decodes to an impossible value
	// (unknown kind, oversized identifier, count the input cannot back,
	// unsorted retransmission ranges, trailing bytes).
	ErrCorrupt = errors.New("wire: corrupt message")
	// ErrUnencodable reports an encode of a message that violates the
	// wire limits (oversized process identifier or member list, unknown
	// configuration kind). Propagated, never panicked: a bad message
	// must surface as a dropped (counted) packet, not a crash.
	ErrUnencodable = errors.New("wire: unencodable message")
)

// appendUvarint appends v as an unsigned varint.
//
//evs:noalloc
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// takeUvarint decodes a varint from b, returning the value, the rest of
// the buffer, and false on truncation or a varint longer than 10 bytes.
//
//evs:noalloc
func takeUvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}

// appendProc appends a length-prefixed process identifier.
//
//evs:noalloc
func appendProc(b []byte, p model.ProcessID) ([]byte, error) {
	if len(p) > MaxProcIDLen {
		return nil, ErrUnencodable
	}
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...), nil
}

// takeProcBytes splits off a length-prefixed identifier without
// converting it to a string (the interning fast path).
//
//evs:noalloc
func takeProcBytes(b []byte) ([]byte, []byte, error) {
	n, rest, ok := takeUvarint(b)
	if !ok {
		return nil, nil, ErrTruncated
	}
	if n > MaxProcIDLen {
		return nil, nil, ErrCorrupt
	}
	if uint64(len(rest)) < n {
		return nil, nil, ErrTruncated
	}
	return rest[:n], rest[n:], nil
}

// appendConfigID appends a configuration identifier:
//
//	kind byte (0 zero, 1 regular, 2 transitional)
//	| if regular/transitional: seq, proc rep
//	| if transitional: prevSeq, proc prevRep
//
//evs:noalloc
func appendConfigID(b []byte, c model.ConfigID) ([]byte, error) {
	switch c.Kind {
	case 0:
		return append(b, 0), nil
	case model.Regular, model.Transitional:
	default:
		return nil, ErrUnencodable
	}
	b = append(b, byte(c.Kind))
	b = appendUvarint(b, c.Seq)
	var err error
	if b, err = appendProc(b, c.Rep); err != nil {
		return nil, err
	}
	if c.Kind == model.Transitional {
		b = appendUvarint(b, c.PrevSeq)
		if b, err = appendProc(b, c.PrevRep); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// appendMembers appends a count-prefixed process list.
//
//evs:noalloc
func appendMembers(b []byte, ids []model.ProcessID) ([]byte, error) {
	if len(ids) > MaxMembers {
		return nil, ErrUnencodable
	}
	b = appendUvarint(b, uint64(len(ids)))
	var err error
	for _, id := range ids {
		if b, err = appendProc(b, id); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// appendDataBody appends a Data message without its kind byte, and
// without its ring when inBatch (the batch frame carries it once).
//
//evs:noalloc
func appendDataBody(b []byte, d *Data, inBatch bool) ([]byte, error) {
	var err error
	if b, err = appendProc(b, d.ID.Sender); err != nil {
		return nil, err
	}
	b = appendUvarint(b, d.ID.SenderSeq)
	if !inBatch {
		if b, err = appendConfigID(b, d.Ring); err != nil {
			return nil, err
		}
	}
	b = appendUvarint(b, d.Seq)
	b = appendUvarint(b, uint64(d.Service))
	var flags byte
	if d.Retrans {
		flags = 1
	}
	b = append(b, flags)
	b = appendUvarint(b, uint64(len(d.Payload)))
	return append(b, d.Payload...), nil
}

// AppendData encodes a Data message into dst: the send-side hot path,
// callable without boxing the message into the Message interface.
//
//evs:noalloc
func AppendData(dst []byte, d *Data) ([]byte, error) {
	dst = append(dst, byte(FrameData))
	return appendDataBody(dst, d, false)
}

// AppendMessage encodes any wire message into dst. Encode failures
// (identifiers or member lists beyond the wire limits) are propagated,
// never panicked.
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	var err error
	switch v := m.(type) {
	case Data:
		return AppendData(dst, &v)
	case DataBatch:
		dst = append(dst, byte(FrameDataBatch))
		if dst, err = appendConfigID(dst, v.Ring); err != nil {
			return nil, err
		}
		if len(v.Msgs) > MaxMembers {
			return nil, ErrUnencodable
		}
		dst = appendUvarint(dst, uint64(len(v.Msgs)))
		for i := range v.Msgs {
			if v.Msgs[i].Ring != v.Ring {
				return nil, ErrUnencodable
			}
			if dst, err = appendDataBody(dst, &v.Msgs[i], true); err != nil {
				return nil, err
			}
		}
	case Token:
		dst = append(dst, byte(FrameToken))
		if dst, err = appendConfigID(dst, v.Ring); err != nil {
			return nil, err
		}
		dst = appendUvarint(dst, v.TokenID)
		dst = appendUvarint(dst, v.Seq)
		dst = appendUvarint(dst, v.Aru)
		if dst, err = appendProc(dst, v.AruID); err != nil {
			return nil, err
		}
		dst = appendUvarint(dst, uint64(len(v.Rtr)))
		for _, r := range v.Rtr {
			if r.Hi < r.Lo {
				return nil, ErrUnencodable
			}
			dst = appendUvarint(dst, r.Lo)
			dst = appendUvarint(dst, r.Hi-r.Lo)
		}
	case Join:
		dst = append(dst, byte(FrameJoin))
		if dst, err = appendProc(dst, v.Sender); err != nil {
			return nil, err
		}
		if dst, err = appendMembers(dst, v.Alive); err != nil {
			return nil, err
		}
		if dst, err = appendMembers(dst, v.Failed); err != nil {
			return nil, err
		}
		dst = appendUvarint(dst, v.MaxRingSeq)
		dst = appendUvarint(dst, v.Attempt)
	case Commit:
		dst = append(dst, byte(FrameCommit))
		if dst, err = appendConfigID(dst, v.NewRing); err != nil {
			return nil, err
		}
		if dst, err = appendMembers(dst, v.Members); err != nil {
			return nil, err
		}
		dst = appendUvarint(dst, v.Attempt)
	case CommitAck:
		dst = append(dst, byte(FrameCommitAck))
		if dst, err = appendConfigID(dst, v.Ring); err != nil {
			return nil, err
		}
		if dst, err = appendProc(dst, v.Sender); err != nil {
			return nil, err
		}
		dst = appendUvarint(dst, v.Attempt)
	case Install:
		dst = append(dst, byte(FrameInstall))
		if dst, err = appendConfigID(dst, v.NewRing); err != nil {
			return nil, err
		}
		if dst, err = appendMembers(dst, v.Members); err != nil {
			return nil, err
		}
		dst = appendUvarint(dst, v.Attempt)
	case Exchange:
		dst = append(dst, byte(FrameExchange))
		if dst, err = appendConfigID(dst, v.Ring); err != nil {
			return nil, err
		}
		if dst, err = appendProc(dst, v.Sender); err != nil {
			return nil, err
		}
		if dst, err = appendConfigID(dst, v.OldRing); err != nil {
			return nil, err
		}
		if dst, err = appendMembers(dst, v.OldMembers); err != nil {
			return nil, err
		}
		dst = appendUvarint(dst, v.MyAru)
		dst = appendUvarint(dst, uint64(len(v.Have)))
		for _, h := range v.Have {
			dst = appendUvarint(dst, h)
		}
		dst = appendUvarint(dst, v.SafeBound)
		dst = appendUvarint(dst, v.HighestSeen)
		dst = appendUvarint(dst, v.DeliveredUpTo)
		if dst, err = appendMembers(dst, v.Obligations); err != nil {
			return nil, err
		}
		dst = appendUvarint(dst, uint64(len(v.SeenSeqs)))
		for _, ss := range v.SeenSeqs {
			if dst, err = appendProc(dst, ss.Proc); err != nil {
				return nil, err
			}
			dst = appendUvarint(dst, ss.Seq)
		}
	case RecoveryDone:
		dst = append(dst, byte(FrameRecoveryDone))
		if dst, err = appendConfigID(dst, v.Ring); err != nil {
			return nil, err
		}
		if dst, err = appendProc(dst, v.Sender); err != nil {
			return nil, err
		}
		if dst, err = appendConfigID(dst, v.OldRing); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: unknown message type %T", ErrUnencodable, m)
	}
	return dst, nil
}

// Encode serialises a message into a fresh buffer.
func Encode(m Message) ([]byte, error) {
	return AppendMessage(make([]byte, 0, 128), m)
}

// Decoder decodes wire messages, amortising allocations across calls: it
// interns process identifiers keyed by their raw encoded bytes, so a
// repeat lookup allocates nothing. Interned identifiers are immutable
// strings, so decoded messages can be retained as long as their input
// buffer is left alone. A Decoder is not safe for concurrent use; each
// transport reader owns one.
type Decoder struct {
	procs map[string]model.ProcessID
}

// internCap bounds the interning table: input naming more distinct
// processes than any honest run still decodes correctly, it just stops
// being amortised.
const internCap = 1 << 14

// NewDecoder returns an empty decoder.
func NewDecoder() *Decoder {
	return &Decoder{procs: make(map[string]model.ProcessID)}
}

// takeProc decodes a length-prefixed process identifier, interned so the
// steady state allocates nothing.
//
//evs:noalloc
func (d *Decoder) takeProc(b []byte) (model.ProcessID, []byte, error) {
	nb, rest, err := takeProcBytes(b)
	if err != nil {
		return "", nil, err
	}
	if p, ok := d.procs[string(nb)]; ok {
		return p, rest, nil
	}
	p := model.ProcessID(nb)
	if len(d.procs) < internCap {
		d.procs[string(nb)] = p
	}
	return p, rest, nil
}

// takeConfigID decodes a configuration identifier.
//
//evs:noalloc
func (d *Decoder) takeConfigID(b []byte) (model.ConfigID, []byte, error) {
	if len(b) == 0 {
		return model.ConfigID{}, nil, ErrTruncated
	}
	kind, rest := b[0], b[1:]
	if kind == 0 {
		return model.ConfigID{}, rest, nil
	}
	if kind != byte(model.Regular) && kind != byte(model.Transitional) {
		return model.ConfigID{}, nil, ErrCorrupt
	}
	var c model.ConfigID
	c.Kind = model.ConfigKind(kind)
	var ok bool
	if c.Seq, rest, ok = takeUvarint(rest); !ok {
		return model.ConfigID{}, nil, ErrTruncated
	}
	var err error
	if c.Rep, rest, err = d.takeProc(rest); err != nil {
		return model.ConfigID{}, nil, err
	}
	if c.Kind == model.Transitional {
		if c.PrevSeq, rest, ok = takeUvarint(rest); !ok {
			return model.ConfigID{}, nil, ErrTruncated
		}
		if c.PrevRep, rest, err = d.takeProc(rest); err != nil {
			return model.ConfigID{}, nil, err
		}
	}
	return c, rest, nil
}

// takeMembers decodes a count-prefixed process list (nil when empty).
func (d *Decoder) takeMembers(b []byte) ([]model.ProcessID, []byte, error) {
	n, rest, ok := takeUvarint(b)
	if !ok {
		return nil, nil, ErrTruncated
	}
	// Each member needs at least its length byte.
	if n > MaxMembers || n > uint64(len(rest)) {
		return nil, nil, ErrCorrupt
	}
	if n == 0 {
		return nil, rest, nil
	}
	out := make([]model.ProcessID, 0, n)
	var err error
	for i := uint64(0); i < n; i++ {
		var p model.ProcessID
		if p, rest, err = d.takeProc(rest); err != nil {
			return nil, nil, err
		}
		out = append(out, p)
	}
	return out, rest, nil
}

// takeDataBody decodes a Data message body into out, returning the rest
// of the buffer. The payload aliases b. A batch element (inBatch) carries
// no ring: out.Ring is left as the caller set it.
//
//evs:noalloc
func (d *Decoder) takeDataBody(b []byte, out *Data, inBatch bool) ([]byte, error) {
	var err error
	if out.ID.Sender, b, err = d.takeProc(b); err != nil {
		return nil, err
	}
	var ok bool
	if out.ID.SenderSeq, b, ok = takeUvarint(b); !ok {
		return nil, ErrTruncated
	}
	if !inBatch {
		if out.Ring, b, err = d.takeConfigID(b); err != nil {
			return nil, err
		}
	}
	if out.Seq, b, ok = takeUvarint(b); !ok {
		return nil, ErrTruncated
	}
	var svc uint64
	if svc, b, ok = takeUvarint(b); !ok {
		return nil, ErrTruncated
	}
	out.Service = model.Service(int64(svc))
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	switch b[0] {
	case 0:
		out.Retrans = false
	case 1:
		out.Retrans = true
	default:
		return nil, ErrCorrupt
	}
	b = b[1:]
	var plen uint64
	if plen, b, ok = takeUvarint(b); !ok {
		return nil, ErrTruncated
	}
	if plen > uint64(len(b)) {
		return nil, ErrTruncated
	}
	if plen == 0 {
		out.Payload = nil
	} else {
		//lint:allow wireown decode output views the input buffer's payload bytes; transports hand each receiver its own buffer and never mutate it after decode
		out.Payload = b[:plen:plen]
	}
	return b[plen:], nil
}

// DecodeData decodes a standalone Data message into out without boxing:
// the receive-side hot path. The payload aliases the input buffer.
//
//evs:arena
//evs:noalloc
func (d *Decoder) DecodeData(b []byte, out *Data) error {
	if len(b) == 0 {
		return ErrTruncated
	}
	if FrameKind(b[0]) != FrameData {
		return ErrCorrupt
	}
	rest, err := d.takeDataBody(b[1:], out, false)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ErrCorrupt
	}
	return nil
}

// Decode parses any wire message. Input must be consumed exactly;
// payloads of data messages alias b, so a decoded message lives no
// longer than the caller leaves b alone.
//
//evs:arena
func (d *Decoder) Decode(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, ErrTruncated
	}
	kind := FrameKind(b[0])
	rest := b[1:]
	var err error
	var ok bool
	var m Message
	switch kind {
	case FrameData:
		var v Data
		if err = d.DecodeData(b, &v); err != nil {
			return nil, err
		}
		return v, nil
	case FrameDataBatch:
		var v DataBatch
		if v.Ring, rest, err = d.takeConfigID(rest); err != nil {
			return nil, err
		}
		var n uint64
		if n, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		// An element is at least 6 bytes (empty sender, zero fields).
		if n > MaxMembers || n > uint64(len(rest))/6 {
			return nil, ErrCorrupt
		}
		if n > 0 {
			v.Msgs = make([]Data, n)
			for i := range v.Msgs {
				v.Msgs[i].Ring = v.Ring
				if rest, err = d.takeDataBody(rest, &v.Msgs[i], true); err != nil {
					return nil, err
				}
			}
		}
		m = v
	case FrameToken:
		var v Token
		if v.Ring, rest, err = d.takeConfigID(rest); err != nil {
			return nil, err
		}
		if v.TokenID, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		if v.Seq, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		if v.Aru, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		if v.AruID, rest, err = d.takeProc(rest); err != nil {
			return nil, err
		}
		var n uint64
		if n, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		// Each range needs at least two bytes.
		if 2*n > uint64(len(rest)) {
			return nil, ErrCorrupt
		}
		if n > 0 {
			v.Rtr = make([]SeqRange, 0, n)
			var prevHi uint64
			for i := uint64(0); i < n; i++ {
				var lo, delta uint64
				if lo, rest, ok = takeUvarint(rest); !ok {
					return nil, ErrTruncated
				}
				if delta, rest, ok = takeUvarint(rest); !ok {
					return nil, ErrTruncated
				}
				hi := lo + delta
				if hi < lo {
					return nil, ErrCorrupt // overflow
				}
				// Ranges are sorted and disjoint (the requester's gap list).
				if i > 0 && lo <= prevHi {
					return nil, ErrCorrupt
				}
				prevHi = hi
				v.Rtr = append(v.Rtr, SeqRange{Lo: lo, Hi: hi})
			}
		}
		m = v
	case FrameJoin:
		var v Join
		if v.Sender, rest, err = d.takeProc(rest); err != nil {
			return nil, err
		}
		//lint:allow wireown decoded membership views the decoder's intern tables until the next Decode; callers copy before retaining
		if v.Alive, rest, err = d.takeMembers(rest); err != nil {
			return nil, err
		}
		//lint:allow wireown decoded membership views the decoder's intern tables until the next Decode; callers copy before retaining
		if v.Failed, rest, err = d.takeMembers(rest); err != nil {
			return nil, err
		}
		if v.MaxRingSeq, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		if v.Attempt, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		m = v
	case FrameCommit:
		var v Commit
		if v.NewRing, rest, err = d.takeConfigID(rest); err != nil {
			return nil, err
		}
		//lint:allow wireown decoded membership views the decoder's intern tables until the next Decode; callers copy before retaining
		if v.Members, rest, err = d.takeMembers(rest); err != nil {
			return nil, err
		}
		if v.Attempt, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		m = v
	case FrameCommitAck:
		var v CommitAck
		if v.Ring, rest, err = d.takeConfigID(rest); err != nil {
			return nil, err
		}
		if v.Sender, rest, err = d.takeProc(rest); err != nil {
			return nil, err
		}
		if v.Attempt, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		m = v
	case FrameInstall:
		var v Install
		if v.NewRing, rest, err = d.takeConfigID(rest); err != nil {
			return nil, err
		}
		//lint:allow wireown decoded membership views the decoder's intern tables until the next Decode; callers copy before retaining
		if v.Members, rest, err = d.takeMembers(rest); err != nil {
			return nil, err
		}
		if v.Attempt, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		m = v
	case FrameExchange:
		var v Exchange
		if v.Ring, rest, err = d.takeConfigID(rest); err != nil {
			return nil, err
		}
		if v.Sender, rest, err = d.takeProc(rest); err != nil {
			return nil, err
		}
		if v.OldRing, rest, err = d.takeConfigID(rest); err != nil {
			return nil, err
		}
		//lint:allow wireown decoded membership views the decoder's intern tables until the next Decode; callers copy before retaining
		if v.OldMembers, rest, err = d.takeMembers(rest); err != nil {
			return nil, err
		}
		if v.MyAru, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		var n uint64
		if n, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		if n > uint64(len(rest)) {
			return nil, ErrCorrupt
		}
		if n > 0 {
			v.Have = make([]uint64, 0, n)
			for i := uint64(0); i < n; i++ {
				var h uint64
				if h, rest, ok = takeUvarint(rest); !ok {
					return nil, ErrTruncated
				}
				v.Have = append(v.Have, h)
			}
		}
		if v.SafeBound, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		if v.HighestSeen, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		if v.DeliveredUpTo, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		//lint:allow wireown decoded membership views the decoder's intern tables until the next Decode; callers copy before retaining
		if v.Obligations, rest, err = d.takeMembers(rest); err != nil {
			return nil, err
		}
		if n, rest, ok = takeUvarint(rest); !ok {
			return nil, ErrTruncated
		}
		// Each pair needs at least two bytes.
		if n > MaxMembers || 2*n > uint64(len(rest)) {
			return nil, ErrCorrupt
		}
		if n > 0 {
			v.SeenSeqs = make([]SeenSeq, 0, n)
			for i := uint64(0); i < n; i++ {
				var ss SeenSeq
				if ss.Proc, rest, err = d.takeProc(rest); err != nil {
					return nil, err
				}
				if ss.Seq, rest, ok = takeUvarint(rest); !ok {
					return nil, ErrTruncated
				}
				v.SeenSeqs = append(v.SeenSeqs, ss)
			}
		}
		m = v
	case FrameRecoveryDone:
		var v RecoveryDone
		if v.Ring, rest, err = d.takeConfigID(rest); err != nil {
			return nil, err
		}
		if v.Sender, rest, err = d.takeProc(rest); err != nil {
			return nil, err
		}
		if v.OldRing, rest, err = d.takeConfigID(rest); err != nil {
			return nil, err
		}
		m = v
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, b[0])
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(rest))
	}
	return m, nil
}

// Decode parses a message with a throwaway decoder (tests, one-shot
// tools; transports hold a Decoder to amortise).
func Decode(b []byte) (Message, error) {
	//lint:allow arenaesc the result aliases only b, which the caller owns, and the throwaway decoder is never reused
	return NewDecoder().Decode(b)
}
