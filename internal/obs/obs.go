// Package obs is the protocol observability layer: per-process counters,
// gauges and histograms plus a structured protocol-event trace, threaded
// through every layer of the EVS stack (internal/totem, internal/node,
// internal/membership, internal/netsim, internal/transport) and surfaced
// by every runtime — Metrics() snapshots everywhere, plus a Prometheus-text
// / expvar HTTP endpoint on the wall clock (LiveGroup, evsd).
//
// Design constraints, in order:
//
//  1. Zero allocation on the data hot path. Every instrument is identified
//     by a small integer from a fixed catalog, so an update is an index
//     into a preallocated array; the trace ring is a preallocated circular
//     buffer of value-typed events. A nil *Metrics disables the whole
//     layer: every method is nil-safe and a no-op, so un-instrumented
//     stacks pay a single predictable branch per update and zero
//     allocations (see bench_test.go).
//  2. Safe under real concurrency. The simulator is single-threaded but
//     LiveGroup is not, and snapshots race with updates; counters, gauges
//     and histogram buckets are atomics, and the trace ring takes a short
//     mutex only on the (much colder) protocol-event path.
//  3. One catalog for every runtime. Metric names are fixed at compile
//     time and identical on every clock and transport, so dashboards and
//     parity tests can compare runtimes series-for-series.
//
// Time is virtual or wall according to the spine.Clock the runtime is
// built on: the simulator's scheduler Now, or wall-clock time since the
// cluster started. Durations recorded in
// histograms are in microseconds of that clock.
package obs

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Counter identifies a monotone counter in the catalog.
type Counter int

// The counter catalog. Names (see CounterName) follow Prometheus
// conventions: a subsystem prefix and a _total suffix.
const (
	// Totem ordering layer.

	// CTokenRotations counts accepted token visits at this process.
	CTokenRotations Counter = iota
	// CTokenStale counts rejected (stale or foreign) tokens.
	CTokenStale
	// CRetransServed counts Rtr requests this process satisfied by
	// rebroadcasting a message it held.
	CRetransServed
	// CRetransRequested counts retransmission requests this process
	// placed on the token.
	CRetransRequested
	// CMsgsSequenced counts messages this process sequenced (sent).
	CMsgsSequenced
	// CMsgsDelivered counts messages delivered in total order.
	CMsgsDelivered
	// CBudgetGrows and CBudgetShrinks count adaptive flow-control budget
	// adjustments.
	CBudgetGrows
	CBudgetShrinks
	// CBatchesSent counts data packets broadcast (batched or lone).
	CBatchesSent

	// Node layer.

	// CSubmits counts accepted application submissions.
	CSubmits
	// CSubmitBacklog counts submissions shed by backpressure.
	CSubmitBacklog
	// CConfigsRegular and CConfigsTransitional count configuration
	// changes delivered to the application, by configuration kind.
	CConfigsRegular
	CConfigsTransitional
	// CGather* count transitions into the membership gather phase by
	// cause: token loss, foreign traffic, a received join, a recovery
	// timeout, a commit conflict, or process start.
	CGatherTokenLoss
	CGatherForeign
	CGatherJoin
	CGatherRecoveryTimeout
	CGatherStart
	// CRecoveryStarted, CRecoveryAborted and CRecoveryFinished count
	// recovery attempts (Steps 2-6) and their outcomes.
	CRecoveryStarted
	CRecoveryAborted
	CRecoveryFinished

	// Membership layer.

	// CMemJoinsSent and CMemJoinsRecv count Join broadcasts emitted and
	// fresh Joins accepted.
	CMemJoinsSent
	CMemJoinsRecv
	// CMemConsensus counts gather rounds that reached membership
	// consensus; CMemCommits counts ring proposals made as
	// representative; CMemInstalls counts rings formed.
	CMemConsensus
	CMemCommits
	CMemInstalls
	// CMemJoinTimeouts counts gather retry expirations;
	// CMemFailuresDeclared counts processes declared failed.
	CMemJoinTimeouts
	CMemFailuresDeclared

	// Self-stabilization (transient state corruption healing).

	// CSeqHeals counts sender sequence counters healed from SeenSeqs
	// observation evidence (local or exchanged); CRingSeqHeals counts
	// configuration freshness counters clamped back up from installed
	// evidence; CStateRejects counts corrupted stable-state elements
	// rejected at load or recovery start (checksum-failed log entries,
	// ghost obligations).
	CSeqHeals
	CRingSeqHeals
	CStateRejects

	// Network (cluster-scoped: the simulated medium).

	// CNetBroadcasts counts broadcast sends; CNetDelivered counts packet
	// deliveries (one per receiver); CNetDropped, CNetCut and
	// CNetDuplicated count loss, partition/down loss and duplication.
	CNetBroadcasts
	CNetDelivered
	CNetDropped
	CNetCut
	CNetDuplicated

	// Group layer (lightweight process groups over the ring).

	// CGroupsFiltered counts group data messages dropped at this process
	// by the membership-filtered fast path: the header peek said no local
	// subscriber, so the payload was never decoded.
	CGroupsFiltered
	// CGroupsEncodeErrors counts group-layer payloads that failed to
	// encode at submission (oversized names, unknown kinds); the message
	// is dropped and counted, never panicked.
	CGroupsEncodeErrors

	// Wire transport (real network media: UDP, TCP mesh; also the
	// simulator's encoded-frame mode).

	// CWirePacketsOut and CWirePacketsIn count frames handed to /
	// received from the medium; CWireBytesOut and CWireBytesIn count
	// their encoded sizes.
	CWirePacketsOut
	CWirePacketsIn
	CWireBytesOut
	CWireBytesIn
	// CWireEncodeErrors and CWireDecodeErrors count codec failures at
	// the transport boundary; the frame is dropped and counted, never
	// panicked.
	CWireEncodeErrors
	CWireDecodeErrors
	// CWireDrops counts frames the transport itself shed: oversize
	// datagrams, full peer queues, sends after close.
	CWireDrops

	numCounters
)

var counterNames = [numCounters]string{
	CTokenRotations:        "totem_token_rotations_total",
	CTokenStale:            "totem_token_stale_total",
	CRetransServed:         "totem_retrans_served_total",
	CRetransRequested:      "totem_retrans_requested_total",
	CMsgsSequenced:         "totem_msgs_sequenced_total",
	CMsgsDelivered:         "totem_msgs_delivered_total",
	CBudgetGrows:           "totem_budget_grows_total",
	CBudgetShrinks:         "totem_budget_shrinks_total",
	CBatchesSent:           "totem_batches_sent_total",
	CSubmits:               "node_submits_total",
	CSubmitBacklog:         "node_submit_backlog_total",
	CConfigsRegular:        "node_configs_regular_total",
	CConfigsTransitional:   "node_configs_transitional_total",
	CGatherTokenLoss:       "node_gather_token_loss_total",
	CGatherForeign:         "node_gather_foreign_total",
	CGatherJoin:            "node_gather_join_total",
	CGatherRecoveryTimeout: "node_gather_recovery_timeout_total",
	CGatherStart:           "node_gather_start_total",
	CRecoveryStarted:       "node_recovery_started_total",
	CRecoveryAborted:       "node_recovery_aborted_total",
	CRecoveryFinished:      "node_recovery_finished_total",
	CMemJoinsSent:          "membership_joins_sent_total",
	CMemJoinsRecv:          "membership_joins_recv_total",
	CMemConsensus:          "membership_consensus_total",
	CMemCommits:            "membership_commits_total",
	CMemInstalls:           "membership_installs_total",
	CMemJoinTimeouts:       "membership_join_timeouts_total",
	CMemFailuresDeclared:   "membership_failures_declared_total",
	CSeqHeals:              "node_seq_heals_total",
	CRingSeqHeals:          "node_ringseq_heals_total",
	CStateRejects:          "node_state_rejects_total",
	CNetBroadcasts:         "net_broadcasts_total",
	CNetDelivered:          "net_packets_delivered_total",
	CNetDropped:            "net_packets_dropped_total",
	CNetCut:                "net_packets_cut_total",
	CNetDuplicated:         "net_packets_duplicated_total",
	CGroupsFiltered:        "groups_filtered_total",
	CGroupsEncodeErrors:    "groups_encode_errors_total",
	CWirePacketsOut:        "wire_packets_out_total",
	CWirePacketsIn:         "wire_packets_in_total",
	CWireBytesOut:          "wire_bytes_out_total",
	CWireBytesIn:           "wire_bytes_in_total",
	CWireEncodeErrors:      "wire_encode_errors_total",
	CWireDecodeErrors:      "wire_decode_errors_total",
	CWireDrops:             "wire_drops_total",
}

// CounterName returns the catalog name of a counter.
func CounterName(c Counter) string { return counterNames[c] }

// Gauge identifies an instantaneous value in the catalog.
type Gauge int

const (
	// GBudget is the current adaptive per-token sequencing budget.
	GBudget Gauge = iota
	// GWindow is the current effective flow-control window.
	GWindow
	// GPendingDepth is the send backlog (submitted, not yet sequenced).
	GPendingDepth
	numGauges
)

var gaugeNames = [numGauges]string{
	GBudget:       "totem_budget",
	GWindow:       "totem_window",
	GPendingDepth: "node_pending_depth",
}

// GaugeName returns the catalog name of a gauge.
func GaugeName(g Gauge) string { return gaugeNames[g] }

// Hist identifies a histogram in the catalog.
type Hist int

const (
	// HBatchFill records the number of data messages per broadcast
	// packet: how full the transport's batches run.
	HBatchFill Hist = iota
	// HBudgetPerVisit records the flow-control budget observed at each
	// accepted token visit: its distribution is the budget trajectory in
	// aggregate (the exact trajectory is in the event trace).
	HBudgetPerVisit
	// HRecoveryTotalUs records recovery duration from Step 2 (ring
	// formed) to Step 6 (new configuration installed), in clock
	// microseconds (virtual in the simulator, wall in LiveGroup).
	HRecoveryTotalUs
	// HRecoveryExchangeUs records Step 3-4 duration: ring formed until
	// the rebroadcast plan is computed from all members' exchanges.
	HRecoveryExchangeUs
	// HRecoveryFlushUs records Step 5-6 duration: plan computed until
	// the new regular configuration is installed.
	HRecoveryFlushUs
	// HTokenGapUs records the time between this process's consecutive
	// accepted token visits in one ring, in clock microseconds. Each
	// installed ring starts a fresh series, so a reconfiguration's outage
	// is not a gap. Its tail is what the token-loss deadline must clear.
	HTokenGapUs
	numHists
)

var histNames = [numHists]string{
	HBatchFill:          "totem_batch_fill",
	HBudgetPerVisit:     "totem_budget_per_visit",
	HRecoveryTotalUs:    "node_recovery_total_us",
	HRecoveryExchangeUs: "node_recovery_exchange_us",
	HRecoveryFlushUs:    "node_recovery_flush_us",
	HTokenGapUs:         "node_token_gap_us",
}

// HistName returns the catalog name of a histogram.
func HistName(h Hist) string { return histNames[h] }

// HistBuckets is the number of histogram buckets. Bucket i counts
// observations v with v < 2^i (the last bucket is unbounded), so the
// bucket layout covers 1 microsecond to ~1 hour without configuration.
const HistBuckets = 32

// BucketBound returns the exclusive upper bound of bucket i (the last
// bucket is unbounded and returns ^uint64(0)).
func BucketBound(i int) uint64 {
	if i >= HistBuckets-1 {
		return ^uint64(0)
	}
	return 1 << uint(i)
}

// histogram is a power-of-two bucketed distribution.
type histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// bucketIndex returns the bucket for value v: the smallest i with v < 2^i,
// clamped to the unbounded last bucket.
//
//evs:noalloc
func bucketIndex(v uint64) int {
	i := bits.Len64(v)
	if i > HistBuckets-1 {
		return HistBuckets - 1
	}
	return i
}

//evs:noalloc
func (h *histogram) observe(v uint64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Metrics is one scope's instrument set: one per process, plus one
// cluster-level instance for the shared medium. The zero value is not
// usable; construct with New. A nil *Metrics is the disabled layer: every
// method no-ops.
type Metrics struct {
	proc  string
	clock func() time.Duration

	counters [numCounters]atomic.Uint64
	gauges   [numGauges]atomic.Int64
	hists    [numHists]histogram

	trace traceRing
}

// New creates a Metrics scope. proc names the scope ("p01", or "net" for
// the cluster-level medium scope); clock supplies the current time
// (virtual or wall) for trace events and is called only on the cold
// protocol-event path. A nil clock records zero times.
func New(proc string, clock func() time.Duration) *Metrics {
	m := &Metrics{proc: proc, clock: clock}
	m.trace.init(DefaultTraceDepth)
	return m
}

// Proc returns the scope name.
func (m *Metrics) Proc() string {
	if m == nil {
		return ""
	}
	return m.proc
}

// Now returns the scope's current time (zero without a clock). Nil-safe.
//
//evs:noalloc
func (m *Metrics) Now() time.Duration {
	if m == nil || m.clock == nil {
		return 0
	}
	return m.clock()
}

// Inc adds one to a counter. Nil-safe, allocation-free.
//
//evs:noalloc
func (m *Metrics) Inc(c Counter) {
	if m == nil {
		return
	}
	m.counters[c].Add(1)
}

// Add adds n to a counter. Nil-safe, allocation-free.
//
//evs:noalloc
func (m *Metrics) Add(c Counter, n uint64) {
	if m == nil {
		return
	}
	m.counters[c].Add(n)
}

// Counter returns a counter's current value. Nil-safe.
func (m *Metrics) Counter(c Counter) uint64 {
	if m == nil {
		return 0
	}
	return m.counters[c].Load()
}

// Set stores a gauge. Nil-safe, allocation-free.
//
//evs:noalloc
func (m *Metrics) Set(g Gauge, v int64) {
	if m == nil {
		return
	}
	m.gauges[g].Store(v)
}

// Gauge returns a gauge's current value. Nil-safe.
func (m *Metrics) Gauge(g Gauge) int64 {
	if m == nil {
		return 0
	}
	return m.gauges[g].Load()
}

// Observe records a histogram observation. Nil-safe, allocation-free.
//
//evs:noalloc
func (m *Metrics) Observe(h Hist, v uint64) {
	if m == nil {
		return
	}
	m.hists[h].observe(v)
}

// ObserveSince records the elapsed clock time since start, in
// microseconds. Nil-safe.
//
//evs:noalloc
func (m *Metrics) ObserveSince(h Hist, start time.Duration) {
	if m == nil {
		return
	}
	d := m.Now() - start
	if d < 0 {
		d = 0
	}
	m.hists[h].observe(uint64(d / time.Microsecond))
}

// HistSnapshot is a histogram's frozen state.
type HistSnapshot struct {
	// Count and Sum are the observation count and value sum.
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	// Buckets[i] counts observations v with v < 2^i; the last bucket is
	// unbounded.
	Buckets []uint64 `json:"buckets"`
}

// Mean returns the mean observation (0 when empty).
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// merge folds another snapshot into this one.
func (h *HistSnapshot) merge(o HistSnapshot) {
	h.Count += o.Count
	h.Sum += o.Sum
	if h.Buckets == nil {
		h.Buckets = make([]uint64, HistBuckets)
	}
	for i, b := range o.Buckets {
		h.Buckets[i] += b
	}
}

// Snapshot is one scope's frozen metric state. Every catalog name is
// present (zero-valued instruments included), so the name set is identical
// across scopes and runtimes.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot freezes the scope's instruments. Nil-safe: a nil scope yields
// an all-zero snapshot with the full catalog.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64, int(numCounters)),
		Gauges:     make(map[string]int64, int(numGauges)),
		Histograms: make(map[string]HistSnapshot, int(numHists)),
	}
	for c := Counter(0); c < numCounters; c++ {
		s.Counters[counterNames[c]] = m.Counter(c)
	}
	for g := Gauge(0); g < numGauges; g++ {
		s.Gauges[gaugeNames[g]] = m.Gauge(g)
	}
	for h := Hist(0); h < numHists; h++ {
		hs := HistSnapshot{Buckets: make([]uint64, HistBuckets)}
		if m != nil {
			hist := &m.hists[h]
			hs.Count = hist.count.Load()
			hs.Sum = hist.sum.Load()
			for i := range hs.Buckets {
				hs.Buckets[i] = hist.buckets[i].Load()
			}
		}
		s.Histograms[histNames[h]] = hs
	}
	return s
}

// merge folds another snapshot into this one: counters and gauges add,
// histograms merge. (Gauges add because the cluster-level reading of a
// per-process level — total pending depth, total budget — is the sum.)
func (s *Snapshot) merge(o Snapshot) {
	for k, v := range o.Counters {
		s.Counters[k] += v
	}
	for k, v := range o.Gauges {
		s.Gauges[k] += v
	}
	for k, v := range o.Histograms {
		h := s.Histograms[k]
		h.merge(v)
		s.Histograms[k] = h
	}
}

// ClusterSnapshot is a whole deployment's frozen metric state: one
// Snapshot per scope plus the cross-scope total.
type ClusterSnapshot struct {
	Procs map[string]Snapshot `json:"procs"`
	Total Snapshot            `json:"total"`
}

// Cluster snapshots a set of scopes and computes their total.
func Cluster(scopes ...*Metrics) ClusterSnapshot {
	cs := ClusterSnapshot{
		Procs: make(map[string]Snapshot, len(scopes)),
		Total: (*Metrics)(nil).Snapshot(),
	}
	for _, m := range scopes {
		if m == nil {
			continue
		}
		s := m.Snapshot()
		cs.Procs[m.Proc()] = s
		cs.Total.merge(s)
	}
	return cs
}

// ProcNames returns the scope names in sorted order.
func (cs ClusterSnapshot) ProcNames() []string {
	out := make([]string, 0, len(cs.Procs))
	for p := range cs.Procs {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
