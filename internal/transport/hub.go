package transport

import (
	"slices"
	"sync"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Hub is the in-process medium: the processes of one OS process attached
// to one broadcast domain. Messages are handed over as shared Go values
// (the ownership contract on node.Transport is what makes that safe), one
// bounded inbox and one receiver goroutine per attached process. Like the
// sockets, the hub cannot cut itself: partitions are a Cut wrapped around
// the receivers' handlers.
type Hub struct {
	mu    sync.Mutex
	ids   []model.ProcessID // configured membership, sorted
	ports map[model.ProcessID]*hubPort
	// met is the medium's observability scope, mirroring what netsim's
	// "net" scope records in the simulator: sends, deliveries (enqueues),
	// overflow drops and sends to a detached process.
	met *obs.Metrics
}

// hubInbox bounds a process's inbox. It is sized so a full token
// rotation's data batches from every peer fit while the receiver holds the
// node lock; beyond it the medium drops, and retransmission recovers.
const hubInbox = 4096

type hubEnvelope struct {
	from model.ProcessID
	msg  wire.Message
}

// hubPort is one process's attachment to the hub.
type hubPort struct {
	hub     *Hub
	id      model.ProcessID
	in      chan hubEnvelope
	handler Handler
	met     *obs.Metrics
	wg      sync.WaitGroup
}

var _ Transport = (*hubPort)(nil)

// NewHub creates a hub whose configured membership is ids. met is the
// medium's scope (nil disables).
func NewHub(ids []model.ProcessID, met *obs.Metrics) *Hub {
	h := &Hub{ids: slices.Clone(ids), ports: make(map[model.ProcessID]*hubPort, len(ids)), met: met}
	slices.Sort(h.ids)
	return h
}

// Join attaches process id, one of the configured ids, and returns its
// transport. handler receives the process's messages on the port's
// receiver goroutine; met is the process's scope (nil disables).
func (h *Hub) Join(id model.ProcessID, handler Handler, met *obs.Metrics) Transport {
	p := &hubPort{hub: h, id: id, in: make(chan hubEnvelope, hubInbox), handler: handler, met: met}
	h.mu.Lock()
	h.ports[id] = p
	h.mu.Unlock()
	p.wg.Add(1)
	go p.receive()
	return p
}

// receive drains the inbox into the handler until Close closes it.
func (p *hubPort) receive() {
	defer p.wg.Done()
	for env := range p.in {
		p.handler(env.from, env.msg)
	}
}

// Broadcast implements Transport: fan out to every attached process,
// including the sender.
func (p *hubPort) Broadcast(msg wire.Message) {
	h := p.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.attached(p) {
		return
	}
	h.met.Inc(obs.CNetBroadcasts)
	for _, id := range h.ids {
		h.enqueue(p, id, msg)
	}
}

// Unicast implements Transport: deliver to one attached peer.
func (p *hubPort) Unicast(to model.ProcessID, msg wire.Message) {
	h := p.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.attached(p) {
		h.enqueue(p, to, msg)
	}
}

// attached reports whether p is still its process's port, counting a send
// on a closed port as a drop. The caller holds h.mu.
func (h *Hub) attached(p *hubPort) bool {
	if h.ports[p.id] != p {
		p.met.Inc(obs.CWireDrops)
		return false
	}
	return true
}

// enqueue hands one message to one process's inbox without blocking. The
// caller holds h.mu, which is also what makes closing an inbox safe.
func (h *Hub) enqueue(from *hubPort, to model.ProcessID, msg wire.Message) {
	port := h.ports[to]
	if port == nil {
		h.met.Inc(obs.CNetCut)
		return
	}
	select {
	case port.in <- hubEnvelope{from: from.id, msg: msg}:
		h.met.Inc(obs.CNetDelivered)
	default:
		// Inbox full: the medium is lossy; the protocol's
		// retransmission machinery recovers.
		h.met.Inc(obs.CNetDropped)
	}
}

// Close implements Transport: the port detaches, its receiver goroutine
// drains and exits, and later sends are dropped (counted). Idempotent.
func (p *hubPort) Close() error {
	h := p.hub
	h.mu.Lock()
	if h.ports[p.id] == p {
		delete(h.ports, p.id)
		close(p.in)
	}
	h.mu.Unlock()
	p.wg.Wait()
	return nil
}
