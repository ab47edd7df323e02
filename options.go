package evs

import (
	"fmt"

	"repro/internal/node"
)

// Runtime selects how an EVS cluster created by New executes.
type Runtime int

const (
	// RuntimeSim is the deterministic simulator (Group): virtual clock,
	// simulated medium, seeded schedules, reproducible executions. The
	// default.
	RuntimeSim Runtime = iota
	// RuntimeLive is the wall clock over the in-process hub (LiveGroup):
	// real goroutines and timers, shared-memory message handoff.
	RuntimeLive
	// RuntimeUDP is the wall clock over real loopback UDP sockets
	// (LiveGroup): every message crosses the wire codec and the kernel's
	// network stack.
	RuntimeUDP
	// RuntimeTCP is RuntimeUDP over the TCP mesh transport.
	RuntimeTCP
)

// String names the runtime.
func (r Runtime) String() string {
	switch r {
	case RuntimeSim:
		return "sim"
	case RuntimeLive:
		return "live"
	case RuntimeUDP:
		return "udp"
	case RuntimeTCP:
		return "tcp"
	default:
		return fmt.Sprintf("runtime(%d)", int(r))
	}
}

// newConfig collects New's options.
type newConfig struct {
	runtime   Runtime
	processes []ProcessID
	num       int
	seed      int64
	node      *node.Config
	sim       *Options
}

// Option configures New.
type Option func(*newConfig)

// WithRuntime selects the execution runtime (default RuntimeSim).
func WithRuntime(r Runtime) Option { return func(c *newConfig) { c.runtime = r } }

// WithProcesses names the processes explicitly (simulator runtime only;
// the wall-clock runtimes generate p01..pNN).
func WithProcesses(ids ...ProcessID) Option {
	return func(c *newConfig) { c.processes = ids }
}

// WithNumProcesses sets the cluster size (default 3).
func WithNumProcesses(n int) Option { return func(c *newConfig) { c.num = n } }

// WithSeed sets the simulator's deterministic seed (rejected by the wall
// clock runtimes, whose schedules the OS owns).
func WithSeed(seed int64) Option { return func(c *newConfig) { c.seed = seed } }

// WithNodeConfig overrides protocol timing. Each runtime has its own
// default profile (simulated-network timings for sim and live, the
// deployment profile for udp/tcp), so set this only to experiment.
func WithNodeConfig(cfg node.Config) Option {
	return func(c *newConfig) { c.node = &cfg }
}

// WithSimOptions passes a full Options through. Every runtime takes the
// primary/VS layers, DiscardHistory, NumProcesses and Node; the fields
// that configure the simulated network (Seed, drop/dup/corrupt/truncate
// rates, Codec, delay bounds) and Processes are for the simulator, and New
// rejects them on a wall-clock runtime. Fields covered by other options
// (Processes, NumProcesses, Seed, Node) are overridden by those options
// when both are given.
func WithSimOptions(opts Options) Option {
	return func(c *newConfig) { c.sim = &opts }
}

// New creates an EVS cluster behind the runtime-independent Cluster
// interface: the deterministic simulator by default, or — selected with
// WithRuntime — the wall clock over the in-process hub or loopback
// sockets. Scenario control beyond the Cluster surface (partitions,
// virtual-time scheduling, crashes, kills) stays on the concrete types;
// type-assert to *Group or *LiveGroup when a scenario needs it.
//
//	c, err := evs.New(evs.WithNumProcesses(5), evs.WithRuntime(evs.RuntimeUDP))
//	defer c.Close()
//	c.Submit(c.IDs()[0], []byte("hello"), evs.Safe)
func New(opts ...Option) (Cluster, error) {
	var c newConfig
	for _, o := range opts {
		o(&c)
	}
	var o Options
	if c.sim != nil {
		o = *c.sim
	}
	if len(c.processes) > 0 {
		o.Processes = c.processes
	}
	if c.num > 0 {
		o.NumProcesses = c.num
	}
	if c.seed != 0 {
		o.Seed = c.seed
	}
	if c.node != nil {
		o.Node = c.node
	}
	switch c.runtime {
	case RuntimeSim:
		return NewGroup(o), nil
	case RuntimeLive, RuntimeUDP, RuntimeTCP:
		g, err := newLiveGroup(c.runtime, o)
		if err != nil {
			return nil, err
		}
		return g, nil
	default:
		return nil, fmt.Errorf("evs.New: unknown runtime %v", c.runtime)
	}
}
