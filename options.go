package evs

import "fmt"

// Runtime selects how an EVS cluster created by New executes.
type Runtime int

const (
	// RuntimeSim is the deterministic simulator (Group): virtual clock,
	// simulated medium, seeded schedules, reproducible executions.
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

// New creates an EVS cluster on runtime rt behind the runtime-independent
// Cluster interface: the deterministic simulator (NewGroup), or the wall
// clock over the in-process hub or loopback sockets (NewLiveGroup, which
// rejects the Options that configure the simulated network). Scenario
// control beyond the Cluster surface (partitions, virtual-time
// scheduling, crashes, kills) stays on the concrete types; type-assert to
// *Group or *LiveGroup when a scenario needs it.
//
//	c, err := evs.New(evs.RuntimeUDP, evs.Options{NumProcesses: 5})
//	defer c.Close()
//	c.Submit(c.IDs()[0], []byte("hello"), evs.Safe)
func New(rt Runtime, opts Options) (Cluster, error) {
	if rt == RuntimeSim {
		return NewGroup(opts), nil
	}
	g, err := NewLiveGroup(rt, opts)
	if err != nil {
		return nil, err // a nil *LiveGroup must not become a non-nil Cluster
	}
	return g, nil
}
