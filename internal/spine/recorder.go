package spine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/transport"
	"repro/internal/vsfilter"
)

// Delivery is a message delivered to the application by the EVS layer.
type Delivery struct {
	// Msg identifies the message; Msg.Sender is the originator.
	Msg model.MessageID
	// Payload is the application payload.
	Payload []byte
	// Service is the service level the sender requested.
	Service model.Service
	// Config is the configuration — regular or transitional — in which
	// the message was delivered, with its membership.
	Config model.Configuration
	// Time is the delivery's time on the cluster's clock: virtual time in
	// the simulator, time since the cluster was created on the wall clock.
	Time time.Duration
}

// ConfigEvent is a configuration change delivered to the application.
type ConfigEvent struct {
	// Config is the configuration being initiated.
	Config model.Configuration
	// Time is the installation's time on the cluster's clock.
	Time time.Duration
}

// Observer receives application-level events from a running cluster.
// Observers are additive: any number may be registered with AddObserver and
// each sees every event, in registration order. Callbacks run on the
// delivering process's event path — the simulator's single thread, or a
// transport or timer goroutine on the wall clock — outside the recorder's
// lock: per-process event order is preserved, callbacks from different
// wall-clock processes are concurrent, and an observer must synchronise
// its own state, must not block, and must not call back into the
// cluster's mutating API.
type Observer interface {
	// OnDelivery observes an application message delivery at a process.
	OnDelivery(id model.ProcessID, d Delivery)
	// OnConfigChange observes a configuration change at a process.
	OnConfigChange(id model.ProcessID, c ConfigEvent)
}

// Options configure a Recorder.
type Options struct {
	// Envelope makes the recorder own each payload's first byte: Submit
	// prefixes the application tag, and deliveries are demultiplexed
	// between the application and the primary-component layer. The root
	// package's clusters set it, so the chaos engine's runs are enveloped
	// too; only the daemon carries raw payloads.
	Envelope bool
	// Primary runs the primary component algorithm of Section 5 on every
	// process; VS additionally runs the virtual synchrony filter. Both
	// need Envelope.
	Primary, VS bool
	// DiscardHistory turns the recorder into a pure measurement: neither
	// the formal-model trace nor per-process delivery slices are retained,
	// so memory stays O(1) per message. Counts, configuration changes,
	// observers and taps keep working (an inline spec.Stream fed from
	// OnTrace is what certifies arbitrarily long soaks in bounded memory);
	// Deliveries and History return nil and Check has nothing to check.
	DiscardHistory bool
}

// Stats counts cluster-level activity that would otherwise vanish
// silently: submissions and primary-layer protocol traffic refused or
// unencodable at the node boundary.
type Stats struct {
	// Submitted and Rejected count submissions accepted and refused
	// (process down, closed or reconfiguring); Backlogged counts those
	// shed because the process's send backlog was full (backpressure).
	Submitted, Rejected, Backlogged uint64
	// PrimaryRejected and PrimaryEncodeErrors count primary-layer
	// broadcasts the node refused or that failed to serialise.
	PrimaryRejected, PrimaryEncodeErrors uint64
}

// record is what one process delivered; guarded by Recorder.mu, except
// the count, which pollers and the no-retention path read and bump
// without it.
type record struct {
	count      atomic.Uint64
	deliveries []Delivery
	confs      []ConfigEvent
	primaryEvs []PrimaryEvent
	vsEvents   []VSEvent
}

// Recorder is the one record of what a set of processes delivered, on
// every runtime: deliveries with their time, configuration changes, the
// formal-model trace, counts, observers, the Section 5 layers and the
// checks over all of it. Every Proc appends here and nowhere else. One
// mutex orders the appends, so within one OS process the trace is a causal
// linearisation; in the simulator the lock is uncontended.
type Recorder struct {
	// OnDeliver, OnConfig and OnTrace, when set, tap the node's own
	// vocabulary before the layers see it: every delivery (enveloped
	// payloads still carry their tag), configuration change and
	// formal-model event. Set them before any process runs. They run on
	// the event path under the process lock: don't block or call back in.
	OnDeliver func(id model.ProcessID, d node.Delivery)
	OnConfig  func(id model.ProcessID, c node.ConfigChange)
	OnTrace   func(e model.Event)
	// MediumScope, when set, is the medium's "net" observability scope,
	// reported by Metrics and ObsEvents beside the processes' scopes.
	MediumScope *obs.Metrics

	clock    Clock
	opts     Options
	ids      []model.ProcessID
	universe model.ProcessSet
	procs    map[model.ProcessID]*Proc // written by Start only

	submitted, rejected, backlogged      atomic.Uint64
	primaryRejected, primaryEncodeErrors atomic.Uint64

	// observers is replaced, never appended to in place, so the event path
	// reads it without the lock.
	observers atomic.Pointer[[]Observer]

	mu      sync.Mutex
	history spec.History
	vsTrace []vsfilter.TraceEvent
}

// ProcNames names n processes p01..pNN (3 when n <= 0): the default
// naming of every runtime.
func ProcNames(n int) []model.ProcessID {
	if n <= 0 {
		n = 3
	}
	ids := make([]model.ProcessID, n)
	for i := range ids {
		ids[i] = model.ProcessID(fmt.Sprintf("p%02d", i+1))
	}
	return ids
}

// NewRecorder creates the recorder for processes ids on clock.
func NewRecorder(clock Clock, ids []model.ProcessID, opts Options) *Recorder {
	if opts.VS {
		opts.Primary = true
	}
	return &Recorder{
		clock:    clock,
		opts:     opts,
		ids:      ids,
		universe: model.NewProcessSet(ids...),
		procs:    make(map[model.ProcessID]*Proc, len(ids)),
	}
}

// IDs returns the process identifiers.
func (r *Recorder) IDs() []model.ProcessID {
	out := make([]model.ProcessID, len(r.ids))
	copy(out, r.ids)
	return out
}

// Proc returns a started process, or nil.
func (r *Recorder) Proc(id model.ProcessID) *Proc { return r.procs[id] }

// Log returns the retained formal-model trace itself, for the simulator's
// single thread (History is the concurrency-safe view).
func (r *Recorder) Log() *spec.History { return &r.history }

// AddObserver registers an additional application-event observer.
func (r *Recorder) AddObserver(o Observer) {
	if o == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := append(r.observing(), o)
	r.observers.Store(&next)
}

// observing returns the registered observers; the slice is never written.
func (r *Recorder) observing() []Observer {
	if p := r.observers.Load(); p != nil {
		return (*p)[:len(*p):len(*p)]
	}
	return nil
}

// Submit originates an application message at process id.
func (r *Recorder) Submit(id model.ProcessID, payload []byte, svc model.Service) error {
	p, ok := r.procs[id]
	if !ok {
		return fmt.Errorf("unknown process %s", id)
	}
	return p.Submit(payload, svc)
}

// SubmitLocked is Submit for a caller already on the process's event
// path, where taking the process lock again would deadlock: an Observer
// callback at that process, or the simulator's single thread, which owns
// every process.
func (r *Recorder) SubmitLocked(id model.ProcessID, payload []byte, svc model.Service) error {
	p, ok := r.procs[id]
	if !ok {
		return fmt.Errorf("unknown process %s", id)
	}
	return r.submit(p, payload, svc)
}

// submit is the one submission path. Refusals are counted as well as
// returned: scenario-expected rejections (process down, backlog shed) must
// stay visible even when a scheduled send has no caller to return them to.
func (r *Recorder) submit(p *Proc, payload []byte, svc model.Service) error {
	if p.dead {
		r.rejected.Add(1)
		return transport.ErrClosed
	}
	if r.opts.Envelope {
		payload = p.wrapApp(payload)
	}
	if err := p.node.Submit(payload, svc); err != nil {
		if errors.Is(err, node.ErrBacklog) {
			r.backlogged.Add(1)
		} else {
			r.rejected.Add(1)
		}
		return err
	}
	r.submitted.Add(1)
	r.traceVSSend(p)
	return nil
}

// Stats returns a copy of the activity counters.
func (r *Recorder) Stats() Stats {
	return Stats{
		Submitted:           r.submitted.Load(),
		Rejected:            r.rejected.Load(),
		Backlogged:          r.backlogged.Load(),
		PrimaryRejected:     r.primaryRejected.Load(),
		PrimaryEncodeErrors: r.primaryEncodeErrors.Load(),
	}
}

// deliver records one delivery at p: tap, demultiplex, count, retain,
// observe, then feed the VS filter. It is the only place a delivery is
// appended to a retained slice.
func (r *Recorder) deliver(p *Proc, d *node.Delivery) {
	if r.OnDeliver != nil {
		r.OnDeliver(p.id, *d)
	}
	payload := d.Payload
	if r.opts.Envelope {
		if len(payload) == 0 {
			return
		}
		tag := payload[0]
		payload = payload[1:]
		if tag == tagPrimary {
			r.onPrimaryMessage(p, payload)
			return
		}
		if tag != tagApp {
			return
		}
	}
	p.log.count.Add(1)
	obsvs := r.observing()
	if r.opts.DiscardHistory && len(obsvs) == 0 && p.layers.filter == nil {
		return // pure measurement: nothing consumes the delivery itself
	}
	del := Delivery{
		Msg:     d.Msg,
		Payload: payload,
		Service: d.Service,
		Config:  d.Config,
		Time:    r.clock.Now(),
	}
	if !r.opts.DiscardHistory {
		r.mu.Lock()
		p.log.deliveries = append(p.log.deliveries, del)
		r.mu.Unlock()
	}
	for _, o := range obsvs {
		o.OnDelivery(p.id, del)
	}
	if f := p.layers.filter; f != nil {
		r.recordVS(p, f.OnDeliver(d.Msg, payload, d.Service))
	}
}

// deliverConfig records one configuration change at p and feeds it to the
// observers and then the layers (in that order: both may submit).
func (r *Recorder) deliverConfig(p *Proc, c node.ConfigChange) {
	if r.OnConfig != nil {
		r.OnConfig(p.id, c)
	}
	ce := ConfigEvent{Config: c.Config, Time: r.clock.Now()}
	r.mu.Lock()
	p.log.confs = append(p.log.confs, ce)
	r.mu.Unlock()
	for _, o := range r.observing() {
		o.OnConfigChange(p.id, ce)
	}
	if prim := p.layers.prim; prim != nil {
		r.applyPrimary(p, prim.OnConfig(c.Config))
	}
	if f := p.layers.filter; f != nil {
		r.recordVS(p, f.OnConfig(c.Config))
	}
}

// trace records one formal-model event.
func (r *Recorder) trace(e model.Event) {
	if r.OnTrace != nil {
		r.OnTrace(e)
	}
	if r.opts.DiscardHistory {
		return
	}
	r.mu.Lock()
	r.history.Append(e)
	r.mu.Unlock()
}

// logOf returns a process's record; an unknown process has an empty one.
func (r *Recorder) logOf(id model.ProcessID) *record {
	if p := r.procs[id]; p != nil {
		return &p.log
	}
	return &record{}
}

// view returns what *s holds now. Records are append-only, so the view
// stays valid and unchanged while the cluster keeps running.
func view[T any](r *Recorder, s *[]T) []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return (*s)[:len(*s):len(*s)]
}

// Deliveries returns the messages delivered at a process, in order. Nil
// with DiscardHistory; use DeliveryCount there.
func (r *Recorder) Deliveries(id model.ProcessID) []Delivery {
	return view(r, &r.logOf(id).deliveries)
}

// DeliveryCount returns the number of application deliveries at a
// process, maintained in every mode.
func (r *Recorder) DeliveryCount(id model.ProcessID) uint64 {
	return r.logOf(id).count.Load()
}

// ConfigChanges returns the configuration changes delivered at a process,
// in order (retained in every mode: they are few).
func (r *Recorder) ConfigChanges(id model.ProcessID) []ConfigEvent {
	return view(r, &r.logOf(id).confs)
}

// Configs returns a process's configuration changes without timestamps.
func (r *Recorder) Configs(id model.ProcessID) []model.Configuration {
	ces := r.ConfigChanges(id)
	out := make([]model.Configuration, len(ces))
	for i, ce := range ces {
		out[i] = ce.Config
	}
	return out
}

// History returns the formal-model trace of the execution so far. On the
// wall clock it is a snapshot, safe while the cluster runs; the
// simulator's single thread gets the trace itself.
func (r *Recorder) History() []model.Event {
	if _, single := r.clock.(virtualClock); single {
		return r.history.Events()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]model.Event(nil), r.history.Events()...)
}

// Check verifies the recorded execution against the EVS specifications
// (1-7) and, when the primary layer runs, the primary component
// properties of Section 2.2. Settledness is the caller's claim that
// traffic has stopped and the ring was given time to drain.
func (r *Recorder) Check(settled bool) []spec.Violation {
	checker := spec.NewChecker(r.History(), spec.Options{Settled: settled})
	out := checker.CheckAll()
	if r.opts.Primary {
		out = append(out, checker.CheckPrimary()...)
	}
	return out
}

// scopes lists every observability scope: one per process plus the
// medium's, when it has one.
func (r *Recorder) scopes() []*obs.Metrics {
	out := make([]*obs.Metrics, 0, len(r.ids)+1)
	for _, id := range r.ids {
		if p := r.procs[id]; p != nil {
			out = append(out, p.met)
		}
	}
	if r.MediumScope != nil {
		out = append(out, r.MediumScope)
	}
	return out
}

// Metrics freezes every process's observability scope, plus the medium's
// "net" scope when there is one, into one cluster snapshot. Safe to call
// while the cluster runs.
func (r *Recorder) Metrics() obs.ClusterSnapshot { return obs.Cluster(r.scopes()...) }

// ObsEvents returns the merged protocol trace: every scope's retained
// events in one time-ordered stream.
func (r *Recorder) ObsEvents() []obs.Event { return obs.MergeEvents(r.scopes()...) }

// Mode returns the protocol mode of a process ("operational",
// "gathering", "recovering", "down"), or "unknown" for an identifier
// that names no process.
func (r *Recorder) Mode(id model.ProcessID) string {
	p := r.procs[id]
	if p == nil {
		return "unknown"
	}
	mode, _, _ := p.State()
	return mode.String()
}

// operationalTogether reports whether all processes that are neither
// crashed nor closed share one installed regular configuration.
func (r *Recorder) operationalTogether() bool {
	var cfg model.ConfigID
	for _, id := range r.ids {
		mode, c, closed := r.procs[id].State()
		if closed || mode == node.Down {
			continue
		}
		if mode != node.Operational {
			return false
		}
		if cfg.IsZero() {
			cfg = c.ID
		} else if cfg != c.ID {
			return false
		}
	}
	return !cfg.IsZero()
}

// WaitOperational blocks until every live process is operational in the
// same configuration, or the timeout elapses. It reports success.
func (r *Recorder) WaitOperational(timeout time.Duration) bool {
	return Poll(timeout, r.operationalTogether)
}

// WaitDeliveries blocks until process id has delivered at least n
// application messages or the timeout elapses; it reports success.
func (r *Recorder) WaitDeliveries(id model.ProcessID, n int, timeout time.Duration) bool {
	return Poll(timeout, func() bool { return r.DeliveryCount(id) >= uint64(n) })
}

// Close closes every started process. Idempotent.
func (r *Recorder) Close() error {
	var first error
	for _, id := range r.ids {
		if p := r.procs[id]; p != nil {
			if err := p.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
