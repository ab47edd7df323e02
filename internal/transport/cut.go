package transport

import (
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Cut partitions a medium on the receive side: wrapped around each
// process's Handler, it drops every message whose sender is in another
// component, so the hub and the sockets partition alike without knowing
// of it. A process's own messages always get through, as self-delivery
// does under any partition in the simulator.
type Cut struct {
	// comp maps each process to its component (numbered from 1); nil
	// means one component. The map is replaced, never mutated, so the
	// receive path reads it without a lock.
	comp atomic.Pointer[map[model.ProcessID]int]
	met  *obs.Metrics // the medium's scope, counting cuts (nil disables)
}

// NewCut returns a cut with every process in one component. met is the
// medium's scope (nil disables).
func NewCut(met *obs.Metrics) *Cut { return &Cut{met: met} }

// Partition splits the medium into the given components; unmentioned
// processes are isolated.
func (c *Cut) Partition(groups ...[]model.ProcessID) {
	comp := make(map[model.ProcessID]int)
	for i, grp := range groups {
		for _, id := range grp {
			comp[id] = i + 1
		}
	}
	c.comp.Store(&comp)
}

// Merge reunites all processes.
func (c *Cut) Merge() { c.comp.Store(nil) }

// Handler wraps process self's handler so that it receives only from its
// own component.
func (c *Cut) Handler(self model.ProcessID, h Handler) Handler {
	return func(from model.ProcessID, msg wire.Message) {
		if comp := c.comp.Load(); from != self && comp != nil {
			if k := (*comp)[self]; k == 0 || (*comp)[from] != k {
				c.met.Inc(obs.CNetCut)
				return
			}
		}
		h(from, msg)
	}
}
