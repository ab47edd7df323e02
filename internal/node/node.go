// Package node composes the protocol stack into a complete EVS process:
// the Totem-style total ordering ring (internal/totem), the membership
// algorithm (internal/membership), the EVS recovery algorithm
// (internal/evs) and stable storage (internal/stable).
//
// A Node is a single-threaded state machine driven by its environment: the
// harness (deterministic simulation or live transport) calls OnMessage,
// OnTimer, Submit, Crash and Recover, and the node calls back through its
// Transport to transmit messages and through its Host to manage timers,
// deliver to the application and record trace events for the
// specification checker.
package node

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/evs"
	"repro/internal/membership"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/seqlog"
	"repro/internal/stable"
	"repro/internal/totem"
	"repro/internal/wire"
)

// Mode is the node's protocol mode.
type Mode int

const (
	// Operational: a regular configuration is installed and the token
	// circulates (Step 1 of the EVS algorithm).
	Operational Mode = iota + 1
	// Gathering: the membership algorithm is reconfiguring.
	Gathering
	// Recovering: the EVS recovery algorithm (Steps 2-6) is running for
	// a proposed new configuration.
	Recovering
	// Down: the process has failed.
	Down
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Operational:
		return "operational"
	case Gathering:
		return "gathering"
	case Recovering:
		return "recovering"
	case Down:
		return "down"
	default:
		return "mode(?)"
	}
}

// TimerKind identifies the node's timers.
type TimerKind int

const (
	// TimerTokenLoss fires when the token has not arrived in time:
	// evidence of failure or partition.
	TimerTokenLoss TimerKind = iota + 1
	// TimerTokenRetrans re-sends the last forwarded token.
	TimerTokenRetrans
	// TimerJoin retries the membership join and eventually declares
	// silent processes failed.
	TimerJoin
	// TimerCommit bounds the membership commit phase.
	TimerCommit
	// TimerRecoveryRetry re-sends recovery state to mask message loss.
	TimerRecoveryRetry
	// TimerRecoveryTimeout bounds a recovery attempt; on expiry the
	// membership algorithm restarts with a reduced view.
	TimerRecoveryTimeout
)

// Delivery is an application-facing message delivery.
type Delivery struct {
	Msg     model.MessageID
	Payload []byte
	Service model.Service
	Config  model.Configuration // configuration in which delivered
}

// ConfigChange is an application-facing configuration change delivery.
type ConfigChange struct {
	Config model.Configuration
}

// Transport is the medium half of the node's environment: how messages
// leave the process. It is implemented by the deterministic simulator,
// the in-process live hub, and the real network transports
// (internal/transport), all interchangeably.
//
// A medium that can also address one process implements
// Unicast(to model.ProcessID, msg wire.Message), under the same
// ownership contract; New detects it once. On such a medium every token
// a non-representative emits goes to its ring successor alone, and the
// representative's forward stays a Broadcast: one beacon per rotation,
// which is what a process outside the ring hears of an idle ring and
// detects it by (foreign-ring detection, and so merge). On a
// broadcast-only medium, such as the simulator's, every token is
// broadcast, as on the paper's LAN.
type Transport interface {
	// Broadcast transmits a message on the medium, to be received by
	// every process in the sender's component, including the sender
	// (self-delivery arrives back through OnMessage like any other
	// receipt — the transport must not call into the node
	// synchronously).
	//
	// Ownership contract: the message and everything it references
	// (payloads, member lists, counter vectors) are immutable from the
	// moment they are handed to Broadcast. The transport may hand the
	// same value to many receivers, serialise it later from another
	// goroutine, or both; neither the caller nor any receiver may
	// mutate it. The wireown analyzer mechanises this convention at the
	// sites where aliases are created.
	Broadcast(msg wire.Message)
}

// Host is the local half of the node's environment: timers, application
// delivery and trace recording. Unlike Transport implementations, a Host
// is always process-local and its callbacks run on the node's event
// path.
type Host interface {
	// SetTimer (re)arms a timer; CancelTimer disarms it.
	SetTimer(kind TimerKind, d time.Duration)
	CancelTimer(kind TimerKind)
	// Deliver hands a message to the application. The Delivery's
	// payload is immutable: it may alias a received wire message (and
	// therefore a transport buffer) under the Transport ownership
	// contract. It is also the formal model's deliver event: the node
	// traces no deliver event of its own, so a host that records the
	// trace derives the event from the Delivery (process, Config.ID,
	// Config.Members, Msg, Service).
	Deliver(d Delivery)
	// DeliverConfig hands a configuration change to the application.
	DeliverConfig(c ConfigChange)
	// Trace records a formal-model event for the specification checker:
	// the send, deliver_conf and fail events (deliveries arrive through
	// Deliver).
	Trace(e model.Event)
}

// TokenRetransMax is how many times a process re-sends the token it
// forwarded, TokenRetrans apart, while it hears nothing of the ring.
const TokenRetransMax = 4

// maxBatch bounds how many data messages one broadcast packet
// (wire.DataBatch) carries.
const maxBatch = 64

// Config tunes the node's protocol timing.
type Config struct {
	TokenLoss       time.Duration
	TokenRetrans    time.Duration
	JoinRetry       time.Duration
	CommitTimeout   time.Duration
	RecoveryRetry   time.Duration
	RecoveryTimeout time.Duration
	Totem           totem.Options
	// MaxPending bounds the send backlog (messages submitted but not yet
	// sequenced); Submit returns ErrBacklog beyond it. Zero means
	// unbounded.
	MaxPending int
}

// DefaultConfig returns timing suited to the simulated network's
// sub-millisecond delays.
func DefaultConfig() Config {
	return Config{
		TokenLoss:       40 * time.Millisecond,
		TokenRetrans:    6 * time.Millisecond,
		JoinRetry:       10 * time.Millisecond,
		CommitTimeout:   25 * time.Millisecond,
		RecoveryRetry:   8 * time.Millisecond,
		RecoveryTimeout: 120 * time.Millisecond,
		Totem:           totem.DefaultOptions(),
		MaxPending:      2048,
	}
}

// bufferedMsg is a message for the proposed new configuration received
// during recovery (Step 2 buffering).
type bufferedMsg struct {
	from model.ProcessID
	msg  wire.Message
}

// Node is one EVS process.
type Node struct {
	id    model.ProcessID
	cfg   Config
	tr    Transport
	uni   unicaster // tr's Unicast; nil on a broadcast-only medium
	host  Host
	store *stable.Store

	mode    Mode
	mem     *membership.Protocol
	ring    *totem.Ring
	ringCfg model.Configuration // current (last installed) regular configuration
	rec     *evs.Recovery
	newRing model.Configuration

	// Old-configuration state carried between operational mode and
	// recovery attempts: the old ring's receive log itself, handed from
	// the ring to each recovery attempt in turn.
	oldLog      *seqlog.Log
	oldState    totem.State
	obligations model.ProcessSet
	pending     []totem.Pending
	// senderSeq is the last sender sequence used. Its redundant evidence,
	// the highest sender sequence observed per originator (including
	// self), has one owner, the store (Record.SeenSeqs): it heals a
	// transiently wrapped senderSeq, locally at Submit/Start and from
	// peers' exchanges at configuration installation (Specification 1.4
	// forbids reusing a message identifier).
	senderSeq    uint64
	buffered     []bufferedMsg
	preBuffer    []bufferedMsg // proposed-ring messages received before Install
	lastToken    *wire.Token
	retransLeft  int
	everInstalld bool
	// lastPut is the sequence number of the entry the last log-extending
	// event stored: what Crash tells the store a torn write destroys.
	lastPut uint64

	// met is this process's observability scope (nil disables). Recovery
	// step timings are taken against the scope's clock: recStart marks
	// Step 2 (ring formed), recPlanAt marks Step 4 (plan computed).
	met       *obs.Metrics
	recStart  time.Duration
	recPlanAt time.Duration
	recPlan   bool
	recDone   bool
	// lastVisit is the scope-clock time of the last accepted token visit
	// in the current ring, or -1 before the ring's first.
	lastVisit time.Duration
}

// ErrDown is returned by Submit when the process has failed.
var ErrDown = errors.New("process is down")

// ErrBacklog is returned by Submit when the send backlog is full
// (Config.MaxPending messages are already queued for sequencing): the
// offered load exceeds what the ring's flow control is draining, and the
// submitter must back off instead of growing the queue without bound.
var ErrBacklog = errors.New("send backlog full")

// New creates a node over a transport (the medium) and a host (timers,
// delivery, tracing). The store may contain a prior incarnation's state
// (recovery with stable storage intact); Start consults it.
func New(id model.ProcessID, cfg Config, tr Transport, host Host, store *stable.Store) *Node {
	uni, _ := tr.(unicaster)
	return &Node{
		id:    id,
		cfg:   cfg,
		tr:    tr,
		uni:   uni,
		host:  host,
		store: store,
	}
}

// unicaster is the optional addressing half of a Transport.
type unicaster interface {
	Unicast(to model.ProcessID, msg wire.Message)
}

// SetMetrics attaches the process's observability scope (nil disables).
// Call before Start; the scope is threaded into each layer as it is built.
func (n *Node) SetMetrics(m *obs.Metrics) { n.met = m }

// Metrics returns the process's observability scope (nil when disabled).
func (n *Node) Metrics() *obs.Metrics { return n.met }

// ID returns the process identifier.
func (n *Node) ID() model.ProcessID { return n.id }

// Mode returns the current protocol mode.
func (n *Node) Mode() Mode { return n.mode }

// CurrentConfig returns the last installed regular configuration (zero
// before the first installation).
func (n *Node) CurrentConfig() model.Configuration { return n.ringCfg }

// Start boots the process: it loads stable storage (a recovering process
// resumes its identity and obligations) and begins gathering a membership.
// The load is integrity-checked: corrupted log entries are rejected with
// propagated errors (the recovery machinery re-requests the gaps), and
// regressed counters are healed from redundant evidence before any of
// them can mint a duplicate identifier.
func (n *Node) Start() {
	rec, log, loadErrs := n.store.LoadChecked()
	for range loadErrs {
		n.met.Inc(obs.CStateRejects)
	}
	n.senderSeq = rec.SenderSeq
	if seen, _ := n.store.SeenSeq(n.id); seen > n.senderSeq {
		// The persisted sender counter regressed below our own recorded
		// observations of it: a transient wrap. Heal from the evidence.
		n.senderSeq = seen
		n.met.Inc(obs.CSeqHeals)
	}
	n.ringCfg = rec.LastRegular
	n.oldLog = log
	n.oldState = totem.State{
		DeliveredUpTo: rec.DeliveredUpTo,
		SafeBound:     rec.SafeBound,
		HighestSeen:   rec.HighestSeen,
		Trimmed:       rec.TrimmedUpTo,
	}
	n.obligations = rec.Obligations
	n.mem = membership.New(n.id, rec.JoinAttempt, rec.MaxRingSeq)
	if !n.ringCfg.ID.IsZero() {
		// Resume knowledge of the prior configuration for staleness
		// checks, without resetting gather state.
		n.mem.SetCurrent(n.ringCfg)
	}
	n.mem.SetMetrics(n.met)
	n.mode = Gathering
	n.met.Inc(obs.CGatherStart)
	n.met.Event(obs.KGatherEnter, uint64(obs.CauseStart), 0)
	n.applyMemActions(n.mem.StartGather())
	n.reconcileMemTimers()
}

// Submit queues an application message for sending with the given service.
// Messages submitted while no regular configuration is installed are
// buffered and sent — in the formal model's sense — once one is.
//
// Submit persists exactly what it changed: the sender counter and its own
// observation record, one store write that is durable before Submit
// returns, so no identifier is reused across a crash. Queueing moves no
// watermark, so the rest of the record is left to the next event's
// persist.
//
//evs:noalloc
func (n *Node) Submit(payload []byte, svc model.Service) error {
	if n.mode == Down {
		return ErrDown
	}
	if n.cfg.MaxPending > 0 && n.PendingDepth() >= n.cfg.MaxPending {
		n.met.Inc(obs.CSubmitBacklog)
		return ErrBacklog
	}
	if seen, _ := n.store.SeenSeq(n.id); seen > n.senderSeq {
		// A live perturbation wrapped the counter since the last send;
		// heal from the observation record before minting an identifier
		// (Specification 1.4).
		n.senderSeq = seen
		n.met.Inc(obs.CSeqHeals)
	}
	n.senderSeq++
	n.store.NoteSent(n.id, n.senderSeq)
	p := totem.Pending{
		ID:      model.MessageID{Sender: n.id, SenderSeq: n.senderSeq},
		Service: svc,
		Payload: payload,
	}
	if n.mode == Operational && n.ring != nil {
		n.ring.Submit(p)
	} else {
		n.pending = append(n.pending, p)
	}
	n.met.Inc(obs.CSubmits)
	n.met.Set(obs.GPendingDepth, int64(n.PendingDepth()))
	return nil
}

// PendingDepth returns the send backlog: messages submitted but not yet
// sequenced on a ring (the queue Submit sheds against via ErrBacklog).
func (n *Node) PendingDepth() int {
	d := len(n.pending)
	if n.ring != nil {
		d += n.ring.PendingCount()
	}
	return d
}

// Crash fails the process: volatile state is lost, stable storage remains.
// The held message log is written here, once; its trims were persisted by
// the events that made them, so the store holds what a write at every
// receipt would have left.
func (n *Node) Crash() {
	if n.mode == Down {
		return
	}
	n.store.SaveLog(n.ringCfg.ID, n.heldLog(), n.lastPut)
	n.host.Trace(model.Event{
		Type:    model.EventFail,
		Proc:    n.id,
		Config:  n.ringCfg.ID,
		Members: n.ringCfg.Members,
	})
	n.met.Event(obs.KCrash, 0, 0)
	n.mode = Down
	n.ring = nil
	n.rec = nil
	n.mem = nil
	n.oldLog = nil
	n.pending = nil
	n.buffered = nil
	n.lastToken = nil
	n.cancelAllTimers()
}

// heldLog is the message log of the last regular configuration: the
// ring's, the recovery attempt's, or the one carried between them.
func (n *Node) heldLog() *seqlog.Log {
	switch {
	case n.ring != nil:
		return n.ring.Log()
	case n.rec != nil:
		return n.rec.Log()
	}
	return n.oldLog
}

// Recover restarts a failed process with its stable storage intact and the
// same identifier.
func (n *Node) Recover() {
	if n.mode != Down {
		return
	}
	n.met.Event(obs.KRecover, 0, 0)
	n.mode = Gathering
	n.Start()
}

// cancelAllTimers disarms every timer.
func (n *Node) cancelAllTimers() {
	for _, k := range []TimerKind{
		TimerTokenLoss, TimerTokenRetrans, TimerJoin,
		TimerCommit, TimerRecoveryRetry, TimerRecoveryTimeout,
	} {
		n.host.CancelTimer(k)
	}
}

// persist saves the hot-path protocol scalars: watermarks, counters and
// the obligation set. The message log is written once, at Crash, and a
// configuration boundary only clears it; the observation record (SeenSeqs)
// lives in the store and is raised there in place (noteSeen), so the
// per-event cost is independent of log size and of how many originators
// were observed.
//
//evs:noalloc
func (n *Node) persist() {
	n.store.SetScalars(n.scalars())
}

// scalars is the record persist writes: the protocol scalars as they
// stand now (SeenSeqs, the primary-component records and the log are not
// part of it).
//
//evs:noalloc
func (n *Node) scalars() stable.Record {
	var st totem.State
	switch {
	case n.mode == Operational && n.ring != nil:
		st = n.ring.Watermarks()
	case n.rec != nil:
		st = n.rec.Watermarks()
	default:
		st = n.oldState
	}
	obligations := n.obligations
	if n.rec != nil {
		obligations = n.rec.Obligations()
	}
	return stable.Record{
		SenderSeq:     n.senderSeq,
		JoinAttempt:   n.memAttempt(),
		MaxRingSeq:    n.memMaxRingSeq(),
		LastRegular:   n.ringCfg,
		DeliveredUpTo: st.DeliveredUpTo,
		SafeBound:     st.SafeBound,
		HighestSeen:   st.HighestSeen,
		TrimmedUpTo:   st.Trimmed,
		Obligations:   obligations,
	}
}

// noteSeen records observation evidence for an originator's sender
// sequence counter (the healing source for transient counter wraps) in
// the store, which owns it.
//
//evs:noalloc
func (n *Node) noteSeen(id model.MessageID) {
	n.store.NoteSeen(id.Sender, id.SenderSeq)
}

// ---------------------------------------------------------------------------
// Live perturbation surface (self-stabilization fault model).
//
// The chaos engine (internal/chaos) calls these between token visits to
// corrupt the volatile state of a running node — the transient faults of
// the Practically-Self-Stabilizing Virtual Synchrony model, as opposed to
// the crash-time stable-storage faults. Each reports whether state
// actually changed, so the engine can count materialized faults.

// PerturbSenderSeq wraps the live sender sequence counter to half its
// value. The Submit-time heal must restore it from the store's SeenSeqs
// before the next identifier is minted.
func (n *Node) PerturbSenderSeq() bool {
	if n.mode == Down || n.senderSeq == 0 {
		return false
	}
	n.senderSeq /= 2
	return true
}

// PerturbObligations plants k ghost processes in the live obligation
// set. Recovery-start validation must reject them.
func (n *Node) PerturbObligations(k int) bool {
	if n.mode == Down || k <= 0 {
		return false
	}
	for i := 0; i < k; i++ {
		n.obligations = n.obligations.Add(model.ProcessID(fmt.Sprintf("ghost-%d", i+1)))
	}
	return true
}

// PerturbRingSeq regresses the live membership freshness counter to
// half its value. The consensus-time clamp and peer join adoption must
// heal it.
func (n *Node) PerturbRingSeq() bool {
	if n.mode == Down || n.mem == nil {
		return false
	}
	return n.mem.CorruptMaxRingSeq()
}

// memMaxRingSeq returns the membership protocol's ring-sequence watermark.
func (n *Node) memMaxRingSeq() uint64 {
	if n.mem == nil {
		return 0
	}
	return n.mem.MaxRingSeq()
}

// memAttempt returns the membership protocol's join counter.
func (n *Node) memAttempt() uint64 {
	if n.mem == nil {
		return n.store.Load().JoinAttempt
	}
	return n.mem.Attempt()
}
