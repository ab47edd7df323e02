// Package wire defines the messages exchanged by the protocol stack: data
// messages sequenced on the ring, the circulating token of the total
// ordering protocol, the join/commit/install messages of the membership
// algorithm, and the exchange/done messages of the EVS recovery algorithm
// (Step 3 and Step 5 of Section 3 of the paper).
//
// Messages are immutable after handoff: the medium hands one message
// value to every receiver of a broadcast without deep-copying, so a
// message must not share backing arrays with memory its builder or a
// receiver goes on mutating. The wireown analyzer mechanises that
// convention here and for the group layer's binary envelopes
// (internal/groups), which ride inside Data payloads under the same
// discipline.
package wire

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/vclock"
)

// Message is the sealed union of all wire message types.
type Message interface {
	isWire()
	// Kind returns a short human-readable tag for tracing.
	Kind() string
}

// Data is an application message broadcast on a ring. Seq is the position in
// the total order of the ring identified by Ring; it is assigned from the
// token when the originator broadcasts the message, which is the send event
// of the formal model.
type Data struct {
	ID      model.MessageID
	Ring    model.ConfigID // regular configuration in which sequenced
	Seq     uint64         // total-order position within Ring
	Service model.Service
	Payload []byte
	// VC is unread: nothing in the program sets it, the codec does not
	// carry it and no log stores it (a seqlog slot keeps the message
	// without it). It is kept only because the frozen benchmark/rigs.go
	// sets it; it goes with that file's next change.
	VC vclock.Stamp
	// Retrans marks operational retransmissions and recovery
	// rebroadcasts (Step 5.a).
	Retrans bool
}

func (Data) isWire() {}

// Kind returns "data".
func (Data) Kind() string { return "data" }

// String renders the message for traces.
func (d Data) String() string {
	r := ""
	if d.Retrans {
		r = " retrans"
	}
	return fmt.Sprintf("data(%s seq=%d %s %s%s)", d.ID, d.Seq, d.Service, d.Ring, r)
}

// DataBatch packs every data message one token visit broadcasts — newly
// sequenced messages and retransmissions alike — into a single wire
// message, so the medium carries one packet per visit instead of one per
// message (the packet packing that gives Totem and Transis their
// LAN-saturating throughput). A batch has no protocol meaning of its own:
// receivers process each element exactly as if it had arrived alone, and
// the fault-injection surface treats a batch as a packet of the "data"
// class (dropping the class drops the batch).
//
// Every element belongs to Ring: the sender packs one ring's messages,
// the encoder refuses an element on another ring, and the decoder copies
// Ring into each element. Receivers rely on it to test the ring once per
// batch.
type DataBatch struct {
	Ring model.ConfigID
	Msgs []Data
}

func (DataBatch) isWire() {}

// Kind returns "data_batch".
func (DataBatch) Kind() string { return "data_batch" }

// String renders the batch for traces.
func (b DataBatch) String() string {
	lo, hi := uint64(0), uint64(0)
	if len(b.Msgs) > 0 {
		lo, hi = b.Msgs[0].Seq, b.Msgs[len(b.Msgs)-1].Seq
	}
	return fmt.Sprintf("data_batch(%s n=%d seq=%d..%d)", b.Ring, len(b.Msgs), lo, hi)
}

// SeqRange is a closed range [Lo, Hi] of sequence numbers. Token
// retransmission requests travel as ranges: a receive log missing a
// contiguous run of n messages costs two words on the wire instead of n.
type SeqRange struct {
	Lo, Hi uint64
}

// Count returns the number of sequence numbers in the range.
func (r SeqRange) Count() uint64 { return r.Hi - r.Lo + 1 }

// Token is the circulating token of the single-ring total ordering protocol.
// Seq is the highest sequence number assigned to any message broadcast on
// the ring; Aru ("all received up to") is the lowest contiguous-receipt
// watermark around the ring, lowered by any process missing messages and
// raised only by the process that lowered it (AruID). A message is safe —
// known received by every ring member — once a process has observed
// token.Aru at or above its sequence number on two successive token visits.
type Token struct {
	Ring    model.ConfigID
	TokenID uint64 // increments on every forward; receivers drop stale tokens
	Seq     uint64
	Aru     uint64
	AruID   model.ProcessID
	// Rtr carries retransmission requests as sorted, disjoint, non-empty
	// ranges of missing sequence numbers (mirroring the requester's
	// internal gap list).
	Rtr []SeqRange
}

func (Token) isWire() {}

// Kind returns "token".
func (Token) Kind() string { return "token" }

// RtrCount returns the number of sequence numbers requested for
// retransmission.
func (t Token) RtrCount() uint64 {
	var n uint64
	for _, g := range t.Rtr {
		n += g.Count()
	}
	return n
}

// String renders the token for traces.
func (t Token) String() string {
	return fmt.Sprintf("token(%s id=%d seq=%d aru=%d rtr=%d)", t.Ring, t.TokenID, t.Seq, t.Aru, t.RtrCount())
}

// Join is broadcast by a process in the Gather state of the membership
// algorithm. Alive is the set of processes the sender currently proposes as
// the new membership (those it has heard from this gather round), Failed the
// set it has given up on. Consensus is reached when every proposed member
// proposes the same Alive\Failed set.
type Join struct {
	Sender     model.ProcessID
	Alive      []model.ProcessID
	Failed     []model.ProcessID
	MaxRingSeq uint64 // highest ring sequence number the sender has seen
	Attempt    uint64 // gather round, monotone per process
}

func (Join) isWire() {}

// Kind returns "join".
func (Join) Kind() string { return "join" }

// String renders the join for traces.
func (j Join) String() string {
	return fmt.Sprintf("join(%s alive=%v failed=%v max=%d att=%d)",
		j.Sender, j.Alive, j.Failed, j.MaxRingSeq, j.Attempt)
}

// Commit is broadcast by the representative (lowest proposed member) once
// join consensus is reached: it proposes installing the new ring.
type Commit struct {
	NewRing model.ConfigID
	Members []model.ProcessID
	Attempt uint64
}

func (Commit) isWire() {}

// Kind returns "commit".
func (Commit) Kind() string { return "commit" }

// String renders the commit for traces.
func (c Commit) String() string {
	return fmt.Sprintf("commit(%s %v att=%d)", c.NewRing, c.Members, c.Attempt)
}

// CommitAck is each member's acknowledgment of a Commit.
type CommitAck struct {
	Ring    model.ConfigID
	Sender  model.ProcessID
	Attempt uint64
}

func (CommitAck) isWire() {}

// Kind returns "commit_ack".
func (CommitAck) Kind() string { return "commit_ack" }

// String renders the ack for traces.
func (c CommitAck) String() string {
	return fmt.Sprintf("commit_ack(%s from %s att=%d)", c.Ring, c.Sender, c.Attempt)
}

// Install is broadcast by the representative when every member has
// acknowledged the Commit; receivers proceed to the recovery algorithm for
// the new ring.
type Install struct {
	NewRing model.ConfigID
	Members []model.ProcessID
	Attempt uint64
}

func (Install) isWire() {}

// Kind returns "install".
func (Install) Kind() string { return "install" }

// String renders the install for traces.
func (i Install) String() string {
	return fmt.Sprintf("install(%s %v att=%d)", i.NewRing, i.Members, i.Attempt)
}

// Exchange is Step 3 of the EVS recovery algorithm: each process of the
// proposed new configuration supplies the identifier of its last regular
// configuration, its receipt state for that configuration, the best safe
// bound it knows, and its obligation set.
type Exchange struct {
	Ring       model.ConfigID // proposed new ring
	Sender     model.ProcessID
	OldRing    model.ConfigID // sender's last regular configuration
	OldMembers []model.ProcessID
	// MyAru is the contiguous-receipt watermark in OldRing's total
	// order; Have lists sequence numbers received beyond MyAru.
	MyAru uint64
	Have  []uint64
	// SafeBound is the highest sequence number the sender knows to have
	// been received by every member of OldRing (from the token's aru,
	// by the two-visit rule). It is the acknowledgment information the
	// paper's Step 1 describes.
	SafeBound uint64
	// HighestSeen is the highest sequence number the sender knows to
	// have been assigned in OldRing.
	HighestSeen uint64
	// DeliveredUpTo is the sender's delivery watermark in OldRing.
	DeliveredUpTo uint64
	Obligations   []model.ProcessID
	// SeenSeqs is the sender's record of the highest sender sequence
	// number it has observed per originator — redundant counter
	// evidence exchanged so a peer whose sender counter suffered a
	// transient wrap can heal it during recovery (Specification 1.4:
	// message identifiers are never reused). Sorted by Proc; freshly
	// built by the sender, never aliasing its live state.
	SeenSeqs []SeenSeq
}

// SeenSeq is one (originator, highest observed sender sequence) pair.
type SeenSeq struct {
	Proc model.ProcessID
	Seq  uint64
}

func (Exchange) isWire() {}

// Kind returns "exchange".
func (Exchange) Kind() string { return "exchange" }

// String renders the exchange for traces.
func (e Exchange) String() string {
	return fmt.Sprintf("exchange(%s from %s old=%s aru=%d have=%d safe=%d high=%d)",
		e.Ring, e.Sender, e.OldRing, e.MyAru, len(e.Have), e.SafeBound, e.HighestSeen)
}

// RecoveryDone announces (Step 5.b) that the sender has received every
// message required within its proposed transitional configuration.
type RecoveryDone struct {
	Ring   model.ConfigID
	Sender model.ProcessID
	// OldRing scopes the announcement to the sender's transitional set.
	OldRing model.ConfigID
}

func (RecoveryDone) isWire() {}

// Kind returns "recovery_done".
func (RecoveryDone) Kind() string { return "recovery_done" }

// String renders the announcement for traces.
func (r RecoveryDone) String() string {
	return fmt.Sprintf("recovery_done(%s from %s old=%s)", r.Ring, r.Sender, r.OldRing)
}
