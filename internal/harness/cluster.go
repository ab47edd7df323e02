// Package harness runs complete EVS clusters deterministically: it wires
// nodes to the simulated broadcast medium and the discrete-event scheduler,
// applies scenario actions (partitions, merges, crashes, recoveries, client
// traffic) at virtual times, and captures the global event history for the
// specification checker.
package harness

import (
	"time"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/spine"
	"repro/internal/stable"
	"repro/internal/wire"
)

// Options configure a cluster.
type Options struct {
	// IDs are the process identifiers; defaults to p1..pN via Procs.
	IDs []model.ProcessID
	// Procs is the process count used when IDs is empty.
	Procs int
	// Seed drives the simulated network.
	Seed int64
	// Net overrides the network profile (defaults to netsim.Default).
	Net *netsim.Config
	// Node overrides protocol timing (defaults to node.DefaultConfig).
	Node *node.Config
	// Record configures the cluster's recorder: the Section 5 layers and
	// history retention (DiscardHistory, which with an inline checker on
	// OnTrace is what makes arbitrarily long soaks memory-bounded).
	Record spine.Options
}

// Cluster is a deterministic in-memory EVS deployment: the spine's
// processes on the simulator's virtual clock, over the simulated medium.
// The embedded Recorder holds everything the processes delivered.
type Cluster struct {
	*spine.Recorder
	Sched *sim.Scheduler
	Net   *netsim.Network
	// History is the recorder's retained formal-model trace.
	History *spec.History

	stats Stats
	// dropKinds holds the active message-class loss rules, consulted by
	// the netsim filter installed on first use (see faults.go).
	dropKinds map[dropKey]map[string]bool
	// OnWire, when set, observes every transmitted message (used for
	// traffic accounting and debugging).
	OnWire func(from model.ProcessID, msg wire.Message)
}

// link is one process's port on the simulated medium.
type link struct {
	c  *Cluster
	id model.ProcessID
}

func (l *link) Broadcast(msg wire.Message) {
	if l.c.OnWire != nil {
		l.c.OnWire(l.id, msg)
	}
	l.c.Net.Broadcast(l.id, msg)
}

func (l *link) Close() error { return nil }

// New builds a cluster; processes boot at time zero.
func New(opts Options) *Cluster {
	ids := opts.IDs
	if len(ids) == 0 {
		ids = spine.ProcNames(opts.Procs)
	}
	netCfg := netsim.Default(opts.Seed)
	if opts.Net != nil {
		netCfg = *opts.Net
		netCfg.Seed = opts.Seed
	}
	nodeCfg := node.DefaultConfig()
	if opts.Node != nil {
		nodeCfg = *opts.Node
	}

	c := &Cluster{Sched: &sim.Scheduler{}}
	clock := spine.Virtual(c.Sched)
	c.Recorder = spine.NewRecorder(clock, ids, opts.Record)
	c.History = c.Recorder.Log()
	c.Net = netsim.New(c.Sched, netCfg)
	c.MediumScope = obs.New("net", clock.Now)
	c.Net.SetMetrics(c.MediumScope)
	for _, id := range ids {
		// The simulated medium cannot fail to attach, so Start cannot fail.
		_, _ = spine.Start(c.Recorder, id, nodeCfg, c.attach)
	}
	return c
}

// attach is the cluster's spine.Dial: it registers the process's handler
// with the simulated medium and returns its port.
func (c *Cluster) attach(id model.ProcessID, h spine.Handler, _ *obs.Metrics) (spine.Medium, error) {
	c.Net.Register(id, func(from model.ProcessID, payload any, _ time.Duration) {
		if msg, ok := payload.(wire.Message); ok {
			h(from, msg)
		}
	})
	return &link{c: c, id: id}, nil
}

// Node returns the node for a process.
func (c *Cluster) Node(id model.ProcessID) *node.Node { return c.Proc(id).Node() }

// Store returns a process's stable storage.
func (c *Cluster) Store(id model.ProcessID) *stable.Store { return c.Proc(id).Store() }

// At schedules an action at an absolute virtual time.
func (c *Cluster) At(t time.Duration, fn func()) {
	c.Sched.At(t, func(time.Duration) { fn() })
}

// Send schedules a client submission at time t. Submission errors (process
// down) are scenario-expected; they are counted in Stats rather than
// discarded, so scenarios can assert on rejected traffic.
func (c *Cluster) Send(t time.Duration, id model.ProcessID, payload string, svc model.Service) {
	c.At(t, func() { _ = c.SubmitLocked(id, []byte(payload), svc) })
}

// Partition schedules a network partition at time t.
func (c *Cluster) Partition(t time.Duration, groups ...[]model.ProcessID) {
	c.At(t, func() { c.Net.Partition(groups...) })
}

// Merge schedules a full network merge at time t.
func (c *Cluster) Merge(t time.Duration) {
	c.At(t, func() { c.Net.Merge() })
}

// Crash schedules a process failure at time t.
func (c *Cluster) Crash(t time.Duration, id model.ProcessID) {
	c.At(t, func() {
		c.Recorder.Crash(id)
		c.Net.SetDown(id, true)
	})
}

// Recover schedules a process recovery (stable storage intact) at time t.
func (c *Cluster) Recover(t time.Duration, id model.ProcessID) {
	c.At(t, func() {
		c.Net.SetDown(id, false)
		c.Recorder.Recover(id)
	})
}

// Run advances the simulation to the given absolute time.
func (c *Cluster) Run(until time.Duration) {
	c.Sched.RunUntil(until)
}

// OperationalConfigIDs returns the distinct regular configurations
// currently installed across live processes.
func (c *Cluster) OperationalConfigIDs() map[model.ConfigID]model.ProcessSet {
	out := make(map[model.ConfigID]model.ProcessSet)
	for _, id := range c.IDs() {
		n := c.Node(id)
		if n.Mode() == node.Operational {
			cfg := n.CurrentConfig()
			out[cfg.ID] = out[cfg.ID].Add(id)
		}
	}
	return out
}
