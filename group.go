package evs

import (
	"time"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spine"
	"repro/internal/stable"
	"repro/internal/wire"
)

// Options configure a cluster on any runtime; New takes the runtime
// beside them. The simulator (NewGroup) takes all of it. The wall-clock
// runtimes (NewLiveGroup) take the part that is not about the simulated
// network — NumProcesses, EnablePrimary, EnableVS, Node, DiscardHistory —
// and reject the rest.
type Options struct {
	// Processes lists the process identifiers. If empty, NumProcesses
	// processes named p01..pNN are created.
	Processes []ProcessID
	// NumProcesses is used when Processes is empty (default 3).
	NumProcesses int
	// Seed drives the deterministic simulation.
	Seed int64
	// DropRate and DupRate configure network loss and duplication.
	DropRate, DupRate float64
	// Codec routes every simulated packet through the wire binary codec
	// (encode at send, decode per receiver) exactly as the real
	// transports do; with the fault rates zero the execution is
	// bit-identical to a run without it. CorruptRate and TruncateRate
	// then flip a bit in, or cut short, individual receivers' encoded
	// frames; rejected frames are counted and dropped, never panicking.
	Codec                     bool
	CorruptRate, TruncateRate float64
	// MinDelay and MaxDelay bound packet latency; zero values select a
	// LAN-like default profile.
	MinDelay, MaxDelay time.Duration
	// EnablePrimary runs the primary component algorithm on every
	// process (required for the virtual synchrony layer).
	EnablePrimary bool
	// EnableVS runs the virtual synchrony filter on every process
	// (implies EnablePrimary).
	EnableVS bool
	// Node overrides protocol timing. Nil selects the runtime's own
	// profile: node.DefaultConfig on the simulator and the hub,
	// daemon.DefaultNetConfig on sockets.
	Node *node.Config
	// DiscardHistory turns the cluster into a pure measurement rig for
	// saturating benchmarks: neither the formal-model event history nor
	// per-process delivery slices are retained, so memory stays O(1) per
	// message. Deliveries returns nil; use DeliveryCount. History, Check,
	// and the latency experiments need the retained data and must not set
	// this.
	DiscardHistory bool
}

// Group is the simulated cluster: the spine's processes on the
// discrete-event scheduler's virtual clock, over the simulated medium, with
// optional primary component and virtual synchrony layers. Every action —
// a send, a partition, a crash — is scheduled at a virtual time, so an
// execution is a function of its seed. What the processes deliver is held
// once, by the embedded recorder: it is the runtime-independent surface
// (IDs, Deliveries, DeliveryCount, ConfigChanges, PrimaryEvents, VSEvents,
// History, Metrics, ObsEvents, AddObserver — register before the
// simulation runs — Mode, Stats, Check, CheckVS), shared with LiveGroup.
type Group struct {
	*spine.Recorder
	sched *sim.Scheduler
	net   *netsim.Network
	// onWire, when set, observes every transmitted message; see OnWire.
	onWire func(from model.ProcessID, msg wire.Message)
}

// link is one process's port on the simulated medium.
type link struct {
	g  *Group
	id model.ProcessID
}

func (l *link) Broadcast(msg wire.Message) {
	if l.g.onWire != nil {
		l.g.onWire(l.id, msg)
	}
	l.g.net.Broadcast(l.id, msg)
}

func (l *link) Close() error { return nil }

// NewGroup creates a group; processes boot at virtual time zero.
func NewGroup(opts Options) *Group {
	ids := opts.Processes
	if len(ids) == 0 {
		ids = spine.ProcNames(opts.NumProcesses)
	}
	netCfg := netsim.Default(opts.Seed)
	if opts.MinDelay > 0 || opts.MaxDelay > 0 {
		netCfg.MinDelay, netCfg.MaxDelay = opts.MinDelay, opts.MaxDelay
	}
	netCfg.DropRate, netCfg.DupRate = opts.DropRate, opts.DupRate
	netCfg.Codec = opts.Codec
	netCfg.CorruptRate, netCfg.TruncateRate = opts.CorruptRate, opts.TruncateRate
	nodeCfg := node.DefaultConfig()
	if opts.Node != nil {
		nodeCfg = *opts.Node
	}

	g := &Group{sched: &sim.Scheduler{}}
	clock := spine.Virtual(g.sched)
	g.Recorder = spine.NewRecorder(clock, ids, opts.record())
	g.net = netsim.New(g.sched, netCfg)
	g.MediumScope = obs.New("net", clock.Now)
	g.net.SetMetrics(g.MediumScope)
	for _, id := range ids {
		// The simulated medium cannot fail to attach, so Start cannot fail.
		_, _ = spine.Start(g.Recorder, id, nodeCfg, g.attach)
	}
	return g
}

// attach is the group's spine.Dial: it registers the process's handler
// with the simulated medium and returns its port.
func (g *Group) attach(id model.ProcessID, h spine.Handler, _ *obs.Metrics) (spine.Medium, error) {
	g.net.Register(id, func(from model.ProcessID, payload any, _ time.Duration) {
		if msg, ok := payload.(wire.Message); ok {
			h(from, msg)
		}
	})
	return &link{g: g, id: id}, nil
}

// record maps the options every runtime shares onto the recorder's.
func (o Options) record() spine.Options {
	return spine.Options{
		Envelope:       true,
		Primary:        o.EnablePrimary,
		VS:             o.EnableVS,
		DiscardHistory: o.DiscardHistory,
	}
}

// OnWire registers an observer of every transmitted protocol message (for
// traffic accounting in the benchmark harness). Batched data packets are
// unwrapped: the observer sees one "data" call per carried message, so
// accounting is independent of how the transport packs packets.
func (g *Group) OnWire(fn func(from ProcessID, kind string)) {
	g.onWire = func(from model.ProcessID, msg wire.Message) {
		if b, ok := msg.(wire.DataBatch); ok {
			for range b.Msgs {
				fn(from, "data")
			}
			return
		}
		fn(from, msg.Kind())
	}
}

// started reports whether the simulation has begun executing events.
func (g *Group) started() bool {
	return g.sched.Fired() > 0 || g.sched.Now() > 0
}

// Now returns the current virtual time.
func (g *Group) Now() time.Duration { return g.sched.Now() }

// Run advances the simulation to the given absolute virtual time.
func (g *Group) Run(until time.Duration) { g.sched.RunUntil(until) }

// At schedules fn at an absolute virtual time.
func (g *Group) At(t time.Duration, fn func()) {
	g.sched.At(t, func(time.Duration) { fn() })
}

// Send schedules a message submission at process id at virtual time t.
func (g *Group) Send(t time.Duration, id ProcessID, payload []byte, svc Service) {
	g.At(t, func() { _ = g.Submit(id, payload, svc) })
}

// Submit submits an application message at the current virtual time. It is
// the Cluster-interface counterpart of Send, for code that drives the
// simulation itself: from an At callback, between Run calls, or — the
// simulator's thread owns every process — from an observer callback.
// Refusals are additionally counted in Stats.
func (g *Group) Submit(id ProcessID, payload []byte, svc Service) error {
	return g.SubmitLocked(id, payload, svc)
}

// Network returns the simulated medium, for its counters (Stats) and for
// fault injection beyond the paper's model: link rules and message
// filters. Partitions and merges go through Partition and Merge.
func (g *Group) Network() *netsim.Network { return g.net }

// Partition schedules a network partition at virtual time t; processes not
// listed in any group are isolated.
func (g *Group) Partition(t time.Duration, groups ...[]ProcessID) {
	g.At(t, func() { g.net.Partition(groups...) })
}

// Merge schedules a full network merge at virtual time t.
func (g *Group) Merge(t time.Duration) {
	g.At(t, func() { g.net.Merge() })
}

// Crash schedules a process failure at virtual time t; volatile state is
// lost, stable storage survives. A crash at an unknown process is a
// no-op.
func (g *Group) Crash(t time.Duration, id ProcessID) {
	if g.Proc(id) == nil {
		return
	}
	g.At(t, func() {
		g.Recorder.Crash(id)
		g.net.SetDown(id, true)
	})
}

// Recover schedules a process recovery at virtual time t: the process
// restarts with its stable storage intact and the same identifier. A
// recovery at an unknown process is a no-op.
func (g *Group) Recover(t time.Duration, id ProcessID) {
	if g.Proc(id) == nil {
		return
	}
	g.At(t, func() {
		g.net.SetDown(id, false)
		g.Recorder.Recover(id)
	})
}

// PeakPending returns the high-water mark of the scheduler's event queue
// over the whole run — the simulator-side memory footprint a benchmark row
// reports alongside its throughput.
func (g *Group) PeakPending() int { return g.sched.PeakPending() }

// ConfigEvents is ConfigChanges under its original name. It exists only
// because the benchmark module's adapter (benchmark/adapter.go) still
// calls it, and goes when that module is next changed (ROADMAP G3).
func (g *Group) ConfigEvents(id ProcessID) []ConfigEvent { return g.ConfigChanges(id) }

// Operational returns the regular configurations currently installed by
// live, operational processes.
func (g *Group) Operational() map[ConfigID]ProcessSet {
	out := make(map[ConfigID]ProcessSet)
	for _, id := range g.IDs() {
		n := g.Proc(id).Node()
		if n.Mode() == node.Operational {
			cfg := n.CurrentConfig()
			out[cfg.ID] = out[cfg.ID].Add(id)
		}
	}
	return out
}

// StableRecord returns a copy of a process's stable storage (for
// diagnostics and tests); the zero Record at an unknown process.
func (g *Group) StableRecord(id ProcessID) stable.Record {
	p := g.Proc(id)
	if p == nil {
		return stable.Record{}
	}
	return p.Store().Load()
}

// PendingDepth returns the send backlog at a process: messages submitted
// but not yet sequenced (zero at an unknown process). Submissions beyond
// the node's MaxPending bound are shed (counted in GroupStats.Backlogged).
func (g *Group) PendingDepth(id ProcessID) int {
	p := g.Proc(id)
	if p == nil {
		return 0
	}
	return p.Node().PendingDepth()
}

// GroupStats counts group-level activity that would otherwise vanish
// silently (see Stats).
type GroupStats = spine.Stats
