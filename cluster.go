package evs

import (
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/spine"
)

// Submission errors, re-exported so Cluster callers can test them with
// errors.Is without importing internal packages.
var (
	// ErrDown reports submission at a failed process.
	ErrDown = node.ErrDown
	// ErrBacklog reports backpressure: the process's send backlog is full.
	ErrBacklog = node.ErrBacklog
)

// Metric vocabulary re-exported from the observability layer, so
// applications can consume snapshots without importing internal packages.
type (
	// MetricsSnapshot is one scope's frozen counters, gauges and
	// histograms. Every catalog name is always present, so snapshots from
	// the simulator and the live runtime compare name-for-name.
	MetricsSnapshot = obs.Snapshot
	// ClusterMetrics is a whole deployment's frozen metric state: one
	// MetricsSnapshot per process (plus the "net" medium scope) and the
	// cross-scope total.
	ClusterMetrics = obs.ClusterSnapshot
	// ObsEvent is one structured protocol trace event (budget changes,
	// gather transitions, recovery steps, configuration installs).
	ObsEvent = obs.Event
)

// Observer receives application-level events from a running cluster.
// Observers are additive: any number may be registered with AddObserver and
// each sees every event, in registration order. Callbacks run on the
// delivering process's event path — the simulator's single thread, or a
// transport or timer goroutine in LiveGroup — and must not block or call
// back into the cluster's mutating API.
type Observer = spine.Observer

// ObserverFuncs adapts plain functions to Observer; nil fields are skipped.
type ObserverFuncs struct {
	Delivery     func(id ProcessID, d Delivery)
	ConfigChange func(id ProcessID, c ConfigEvent)
}

// OnDelivery implements Observer.
func (o ObserverFuncs) OnDelivery(id ProcessID, d Delivery) {
	if o.Delivery != nil {
		o.Delivery(id, d)
	}
}

// OnConfigChange implements Observer.
func (o ObserverFuncs) OnConfigChange(id ProcessID, c ConfigEvent) {
	if o.ConfigChange != nil {
		o.ConfigChange(id, c)
	}
}

// Cluster is the runtime-independent face of an EVS deployment, implemented
// by Group (virtual clock, simulated medium) and LiveGroup (wall clock,
// over the in-process hub or loopback sockets). Code written against
// Cluster — applications, examples, parity tests — runs unchanged on every
// runtime.
//
// Scheduling differs by nature between the runtimes (virtual time versus
// wall time), so scenario control (partitions, crashes, timed sends) stays
// on the concrete types; Cluster covers the submission, observation and
// introspection surface.
type Cluster interface {
	// IDs returns the process identifiers.
	IDs() []ProcessID
	// Submit submits an application message at a process immediately. In
	// the simulator "immediately" means at the current virtual time (use
	// Group.Send to schedule ahead).
	Submit(id ProcessID, payload []byte, svc Service) error
	// Deliveries returns the messages delivered to a process, in order.
	Deliveries(id ProcessID) []Delivery
	// ConfigChanges returns the configuration changes delivered to a
	// process, in order.
	ConfigChanges(id ProcessID) []ConfigEvent
	// History returns the formal-model trace of the execution so far.
	History() []Event
	// Metrics freezes every process's observability scope (plus the "net"
	// medium scope) into one cluster snapshot.
	Metrics() ClusterMetrics
	// AddObserver registers an additional application-event observer.
	AddObserver(o Observer)
	// Close releases the deployment's resources. It is idempotent; the
	// simulator has nothing to release and returns nil.
	Close() error
}

var (
	_ Cluster = (*Group)(nil)
	_ Cluster = (*LiveGroup)(nil)
)
