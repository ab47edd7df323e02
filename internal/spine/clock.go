// Package spine is the one process runtime in the tree: every EVS process,
// on every runtime, is a Proc — the only node.Host — reporting to a
// Recorder. A runtime is a pair:
//
//	clock × transport
//
// The clock is virtual (the simulator's scheduler) or the wall clock; the
// transport is whatever the dial function returns — the simulated medium,
// the in-process hub, or a UDP or TCP socket. The simulated and the
// wall-clock clusters of the root package and the evsd daemon differ
// only in the pair they hand to Start, and in what they add beside the
// spine (virtual-time scheduling, partition control, HTTP and trace
// files).
package spine

import (
	"time"

	"repro/internal/node"
	"repro/internal/sim"
)

// Clock is the time half of a runtime: it reads the time, boots a process
// and arms its protocol timers. Virtual and Wall are the two clocks.
type Clock interface {
	// Now is the time since the clock's origin: virtual time in the
	// simulator, time since the cluster was created on the wall clock.
	Now() time.Duration
	// boot starts p's node. The caller holds p.mu.
	boot(p *Proc)
	// arm starts a one-shot timer that fires p's kind timer after d.
	arm(p *Proc, kind node.TimerKind, d time.Duration) Timer
}

// Timer is a cancellable handle to an armed timer of either clock. The
// zero Timer cancels nothing. It is a value, so the per-process timer
// table never allocates.
type Timer struct {
	sim  sim.Timer
	wall *time.Timer
}

// Cancel disarms the timer; cancelling a fired or zero Timer is a no-op.
func (t Timer) Cancel() {
	if t.wall != nil {
		t.wall.Stop()
		return
	}
	t.sim.Cancel()
}

// virtualClock runs processes on the simulator's scheduler: boot is the
// event at virtual time zero and timers are closure-free typed events
// dispatched back through Proc.RunOp, so seeded runs replay exactly.
type virtualClock struct{ *sim.Scheduler }

// Virtual returns the clock of the deterministic simulator.
func Virtual(s *sim.Scheduler) Clock { return virtualClock{s} }

func (c virtualClock) boot(p *Proc) { c.AtOp(0, sim.Op{Target: p, Kind: opBoot}) }

func (c virtualClock) arm(p *Proc, kind node.TimerKind, d time.Duration) Timer {
	return Timer{sim: c.AfterOp(d, sim.Op{Target: p, Kind: uint8(kind)})}
}

// wallClock runs processes in real time.
type wallClock struct{ start time.Time }

// Wall returns a wall clock whose origin is now.
func Wall() Clock {
	return &wallClock{start: time.Now()} //lint:allow determinism uptime anchor of the wall-clock runtime; feeds metric and delivery timestamps only, never protocol state
}

func (c *wallClock) Now() time.Duration {
	return time.Since(c.start) //lint:allow determinism the wall clock IS the real-time runtime; the simulator provides the deterministic one
}

func (c *wallClock) boot(p *Proc) { p.node.Start() }

func (c *wallClock) arm(p *Proc, kind node.TimerKind, d time.Duration) Timer {
	//lint:allow determinism the wall clock IS the real-time runtime; the simulator provides the deterministic one
	return Timer{wall: time.AfterFunc(d, func() { p.fire(kind) })}
}

// Poll is the one wall-clock polling loop: it blocks until cond holds or
// the timeout elapses, and reports whether cond held. Wall time never
// reaches the node state machine through it.
func Poll(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout) //lint:allow determinism ops/test polling helper; wall time never reaches the node state machine
	for time.Now().Before(deadline) {   //lint:allow determinism ops/test polling helper; wall time never reaches the node state machine
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond) //lint:allow determinism ops/test polling helper; wall time never reaches the node state machine
	}
	return cond()
}
