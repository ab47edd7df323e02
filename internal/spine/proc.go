package spine

import (
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stable"
	"repro/internal/wire"
)

// Medium is what a process needs from its transport: the node's Broadcast
// plus shutdown. Every transport.Transport is one.
type Medium interface {
	node.Transport
	Close() error
}

// Handler receives one message from the medium at the local process; it
// is what a Dial function wires its transport's receive side to.
type Handler = func(from model.ProcessID, msg wire.Message)

// Dial opens process id's transport. It is handed the process's message
// handler and metric scope, and runs under the process lock: a transport
// that starts receiving before Dial returns is safe, because its handler
// calls wait until the node exists and has started.
type Dial func(id model.ProcessID, h Handler, met *obs.Metrics) (Medium, error)

// opBoot is the sim.Op kind of the boot event; timer events carry their
// node.TimerKind, which starts at 1.
const opBoot = 0

// Proc is one EVS process on the spine and the only node.Host in the
// tree: it owns the node, its stable store, its metric scope, its timer
// table, the lock that serialises the node's entry points, and the dead
// flag that silences it at shutdown.
type Proc struct {
	id    model.ProcessID
	rec   *Recorder
	store *stable.Store
	met   *obs.Metrics
	tr    Medium

	mu     sync.Mutex // guards the node's entry points, timers and dead
	node   *node.Node
	timers [node.TimerRecoveryTimeout + 1]Timer
	dead   bool

	layers layers // §5 state machines; touched on the event path only
	// arena amortises the per-submission envelope allocation: tagged
	// payload buffers are carved from chunks instead of allocated one
	// append each. Carved buffers are never reused, so handing them to
	// the node (which retains them until sequenced) is safe.
	arena []byte
	log   record // what the process delivered; guarded by rec.mu
}

var (
	_ node.Host    = (*Proc)(nil)
	_ sim.OpTarget = (*Proc)(nil)
)

// Start builds process id on rec's clock and registers it with rec:
// transport, then node, then boot, all under the process lock — so a
// peer's packet that arrives while the process is half built waits in
// OnMessage instead of finding no node. On the wall clock the node has
// started when Start returns; on the virtual clock its start is the event
// at time zero.
func Start(rec *Recorder, id model.ProcessID, cfg node.Config, dial Dial) (*Proc, error) {
	p := &Proc{id: id, rec: rec, store: &stable.Store{}}
	p.met = obs.New(string(id), rec.clock.Now)
	p.mu.Lock()
	defer p.mu.Unlock()
	tr, err := dial(id, p.OnMessage, p.met)
	if err != nil {
		return nil, err
	}
	p.tr = tr
	p.node = node.New(id, cfg, tr, p, p.store)
	p.node.SetMetrics(p.met)
	p.layers = rec.newLayers(id, model.Configuration{}, model.Configuration{})
	rec.procs[id] = p
	rec.clock.boot(p)
	return p, nil
}

// ID returns the process identifier.
func (p *Proc) ID() model.ProcessID { return p.id }

// Node returns the protocol state machine without taking the process
// lock: for the simulator's single thread, which owns every process, and
// for tests. Wall-clock callers go through the locked methods.
func (p *Proc) Node() *node.Node { return p.node }

// Store returns the process's stable storage.
func (p *Proc) Store() *stable.Store { return p.store }

// Metrics returns the process's observability scope.
func (p *Proc) Metrics() *obs.Metrics { return p.met }

// Transport returns the medium Dial opened.
func (p *Proc) Transport() Medium { return p.tr }

// OnMessage hands one received message to the node.
func (p *Proc) OnMessage(from model.ProcessID, msg wire.Message) {
	p.mu.Lock()
	if !p.dead {
		p.node.OnMessage(from, msg)
	}
	p.mu.Unlock()
}

// fire runs an expired timer.
func (p *Proc) fire(kind node.TimerKind) {
	p.mu.Lock()
	if !p.dead {
		p.node.OnTimer(kind)
	}
	p.mu.Unlock()
}

// RunOp dispatches the virtual clock's events: boot and timers.
func (p *Proc) RunOp(op sim.Op, _ time.Duration) {
	if op.Kind != opBoot {
		p.fire(node.TimerKind(op.Kind))
		return
	}
	p.mu.Lock()
	p.node.Start()
	p.mu.Unlock()
}

// Submit originates a message at the process. On a cluster that envelopes
// payloads (Options.Envelope) it is an application message.
func (p *Proc) Submit(payload []byte, svc model.Service) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rec.submit(p, payload, svc)
}

// State snapshots the protocol mode and the installed configuration, and
// reports whether the process has been closed.
func (p *Proc) State() (mode node.Mode, cfg model.Configuration, closed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.node.Mode(), p.node.CurrentConfig(), p.dead
}

// Close silences the process — no protocol goodbye, no Fail event, as
// SIGKILL would leave it — stops its timers and closes its transport.
// Idempotent.
func (p *Proc) Close() error {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return nil
	}
	p.dead = true
	for k := range p.timers {
		p.CancelTimer(node.TimerKind(k))
	}
	p.mu.Unlock()
	// Outside the lock: the transport's receive goroutine may be parked
	// in OnMessage, and Close waits for it.
	return p.tr.Close()
}

// SetTimer implements node.Host. Called with p.mu held, as every node
// entry point runs under it.
func (p *Proc) SetTimer(kind node.TimerKind, d time.Duration) {
	p.timers[kind].Cancel()
	p.timers[kind] = p.rec.clock.arm(p, kind, d)
}

// CancelTimer implements node.Host.
func (p *Proc) CancelTimer(kind node.TimerKind) {
	p.timers[kind].Cancel()
	p.timers[kind] = Timer{}
}

// Deliver implements node.Host: the delivery is also the formal model's
// deliver event, traced first, and only when something reads the trace.
func (p *Proc) Deliver(d node.Delivery) {
	if r := p.rec; r.OnTrace != nil || !r.opts.DiscardHistory {
		r.trace(model.Event{
			Type:    model.EventDeliver,
			Proc:    p.id,
			Config:  d.Config.ID,
			Members: d.Config.Members,
			Msg:     d.Msg,
			Service: d.Service,
		})
	}
	p.rec.deliver(p, &d)
}

// DeliverConfig implements node.Host.
func (p *Proc) DeliverConfig(c node.ConfigChange) { p.rec.deliverConfig(p, c) }

// Trace implements node.Host.
func (p *Proc) Trace(e model.Event) { p.rec.trace(e) }
