package evs

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/groups"
	"repro/internal/obs"
)

// Re-exported group-layer vocabulary.
type (
	// GroupView is a named group's membership view.
	GroupView = groups.ViewChange
	// GroupDelivery is a group-addressed message delivery.
	GroupDelivery = groups.Deliver
	// GroupEvent is the union of group-layer events.
	GroupEvent = groups.Event
	// GroupID is a dense interned group identifier, assigned
	// identically at every process from the safe total order and valid
	// within one configuration epoch.
	GroupID = groups.GroupID
	// ClientID identifies a lightweight client endpoint multiplexed on
	// a host process (0 is reserved for the process itself).
	ClientID = groups.ClientID
	// ClientOp is one client subscription change inside a batch.
	ClientOp = groups.ClientOp
)

// TopicsOptions configure the group layer.
type TopicsOptions struct {
	// DiscardHistory mirrors Options.DiscardHistory for the group
	// layer: no event history, delivery indexes, or view logs are
	// retained, so the 100k-client bench runs in O(1) memory per
	// message. Counts (DeliveryCount, ClientDeliveries, Filtered)
	// and live views (View) remain available.
	DiscardHistory bool
	// RetainClientQueues keeps a per-client queue of deliveries
	// (ClientQueue). Off by default; high-volume rigs count instead.
	RetainClientQueues bool
}

// Topics multiplexes named process groups over a Group's EVS transport —
// the process group paradigm of the paper's introduction: processes join
// and leave named groups, messages are addressed to groups, and every
// member of a configuration derives identical group membership views from
// the safe total order.
//
// Beyond process-level membership, Topics multiplexes lightweight client
// endpoints, Spread-style: many clients live on one ring member, their
// join/leave/send are ordered group events (batchable), and each host
// fans deliveries out to its local subscribed clients — which is how a
// 100k-client scenario runs on a 16-process ring.
//
// Create it before running the simulation; it registers itself as a
// delivery observer on the Group.
type Topics struct {
	g     *Group
	procs map[ProcessID]*topicProc
	opts  TopicsOptions
	// encodeErrors counts group-layer payloads that failed to serialise
	// and were dropped instead of submitted — the group-layer analogue
	// of Stats.PrimaryEncodeErrors. Atomic: LiveGroup-style runtimes
	// submit from multiple goroutines, and reads may race the run.
	encodeErrors atomic.Uint64
}

// topicProc is one process's slice of the group layer: its multiplexer,
// its metric scope, and — unless history is discarded — its event
// stream plus per-group indexes so Deliveries and Views answer without
// scanning the full history.
type topicProc struct {
	t     *Topics
	id    ProcessID
	mux   *groups.Mux
	met   *obs.Metrics
	event []GroupEvent
	deliv map[string][]GroupDelivery
	views map[string][]GroupView
	// delivered counts member data deliveries even when history is
	// discarded.
	delivered uint64
}

// OnGroupData implements groups.Sink: the per-delivery hot path.
func (p *topicProc) OnGroupData(d groups.Deliver) {
	p.delivered++
	if p.t.opts.DiscardHistory {
		return
	}
	p.event = append(p.event, d)
	p.deliv[d.Group] = append(p.deliv[d.Group], d)
}

// record folds control events into the history and the view index.
func (p *topicProc) record(evs []GroupEvent) {
	if len(evs) == 0 || p.t.opts.DiscardHistory {
		return
	}
	p.event = append(p.event, evs...)
	for _, e := range evs {
		if v, ok := e.(GroupView); ok {
			p.views[v.Group] = append(p.views[v.Group], v)
		}
	}
}

// ErrStarted reports an attempt to attach a layer to a simulation that has
// already begun executing events.
var ErrStarted = errors.New("simulation has already started")

// NewTopics attaches a group layer to g with default options. It must be
// called before the simulation runs: the layer derives group membership
// from the complete safe total order, so attaching it to a simulation
// that has already executed events would silently miss the prefix — that
// is an error.
func NewTopics(g *Group) (*Topics, error) {
	return NewTopicsWith(g, TopicsOptions{})
}

// NewTopicsWith is NewTopics with explicit options.
func NewTopicsWith(g *Group, opts TopicsOptions) (*Topics, error) {
	if g.started() {
		return nil, ErrStarted
	}
	t := &Topics{
		g:     g,
		procs: make(map[ProcessID]*topicProc, len(g.IDs())),
		opts:  opts,
	}
	for _, id := range g.IDs() {
		p := &topicProc{
			t:     t,
			id:    id,
			mux:   groups.New(id),
			met:   g.Proc(id).Metrics(),
			deliv: make(map[string][]GroupDelivery),
			views: make(map[string][]GroupView),
		}
		p.mux.SetSink(p)
		p.mux.SetMetrics(p.met)
		p.mux.RetainQueues(opts.RetainClientQueues)
		t.procs[id] = p
	}
	g.AddObserver(topicsObserver{t})
	return t, nil
}

// topicsObserver adapts Topics to the Observer interface without exposing
// the callbacks on Topics' public API.
type topicsObserver struct{ t *Topics }

func (o topicsObserver) OnDelivery(id ProcessID, d Delivery) {
	p := o.t.procs[id]
	p.record(p.mux.OnDeliver(d.Msg.Sender, d.Payload))
}

func (o topicsObserver) OnConfigChange(id ProcessID, c ConfigEvent) {
	t := o.t
	p := t.procs[id]
	announce, evs, err := p.mux.OnConfig(c.Config)
	p.record(evs)
	if err != nil {
		t.countEncodeError(p)
		return
	}
	if announce != nil {
		_ = t.g.Submit(id, announce, Safe)
	}
}

// countEncodeError counts a dropped payload in both the layer total and
// the process's metric scope.
func (t *Topics) countEncodeError(p *topicProc) {
	t.encodeErrors.Add(1)
	p.met.Inc(obs.CGroupsEncodeErrors)
}

// submitEncoded submits a group-layer payload unless encoding failed, in
// which case the message is counted as dropped.
func (t *Topics) submitEncoded(p *topicProc, payload []byte, err error) {
	if err != nil {
		t.countEncodeError(p)
		return
	}
	if payload != nil {
		_ = t.g.Submit(p.id, payload, Safe)
	}
}

// Join schedules a group subscription at virtual time at.
func (t *Topics) Join(at time.Duration, id ProcessID, group string) {
	p := t.procs[id]
	t.g.At(at, func() {
		payload, err := p.mux.Join(group)
		t.submitEncoded(p, payload, err)
	})
}

// Leave schedules a group unsubscription at virtual time at.
func (t *Topics) Leave(at time.Duration, id ProcessID, group string) {
	p := t.procs[id]
	t.g.At(at, func() {
		payload, err := p.mux.Leave(group)
		t.submitEncoded(p, payload, err)
	})
}

// Send schedules a group-addressed message at virtual time at.
func (t *Topics) Send(at time.Duration, id ProcessID, group string, data []byte) {
	p := t.procs[id]
	t.g.At(at, func() {
		payload, err := p.mux.Send(group, data)
		t.submitEncoded(p, payload, err)
	})
}

// ClientJoin schedules a client endpoint's group subscription. The join
// rides the total order like any other group event; duplicates are
// deduplicated at the source and submit nothing.
func (t *Topics) ClientJoin(at time.Duration, id ProcessID, client ClientID, group string) {
	p := t.procs[id]
	t.g.At(at, func() {
		payload, err := p.mux.ClientJoin(client, group)
		t.submitEncoded(p, payload, err)
	})
}

// ClientLeave schedules a client endpoint's unsubscription.
func (t *Topics) ClientLeave(at time.Duration, id ProcessID, client ClientID, group string) {
	p := t.procs[id]
	t.g.At(at, func() {
		payload, err := p.mux.ClientLeave(client, group)
		t.submitEncoded(p, payload, err)
	})
}

// ClientSend schedules a data message from a client endpoint.
func (t *Topics) ClientSend(at time.Duration, id ProcessID, client ClientID, group string, data []byte) {
	p := t.procs[id]
	t.g.At(at, func() {
		payload, err := p.mux.ClientSend(client, group, data)
		t.submitEncoded(p, payload, err)
	})
}

// ClientBatch schedules a batch of client subscription ops as one safe
// message — the daemon-style aggregation that subscribes hundreds of
// clients per ordered event.
func (t *Topics) ClientBatch(at time.Duration, id ProcessID, ops []ClientOp) {
	p := t.procs[id]
	t.g.At(at, func() {
		payload, _, err := p.mux.ClientOpsPayload(ops)
		t.submitEncoded(p, payload, err)
	})
}

// SubmitClientSend submits a client data message immediately (from an At
// callback or between Run calls) to an already-interned group: the
// bench hot path — arena-carved envelope, no name hashing, backpressure
// surfaced to the caller.
func (t *Topics) SubmitClientSend(id ProcessID, client ClientID, gid GroupID, data []byte) error {
	p := t.procs[id]
	return t.g.Submit(id, p.mux.SendTo(client, gid, data), Safe)
}

// Resolve returns a group's interned ID at a process in the current
// epoch (false until the first name-carrying message for it delivers).
func (t *Topics) Resolve(id ProcessID, group string) (GroupID, bool) {
	return t.procs[id].mux.Resolve(group)
}

// EncodeErrors reports how many group-layer payloads failed to serialise
// and were dropped. Safe to call concurrently with the run.
func (t *Topics) EncodeErrors() uint64 { return t.encodeErrors.Load() }

// Events returns the group-layer events observed at a process, in order
// (nil when DiscardHistory is set).
func (t *Topics) Events(id ProcessID) []GroupEvent { return t.procs[id].event }

// Deliveries returns the messages a process received in one group,
// answered from a per-group index rather than a scan of the full event
// history (nil when DiscardHistory is set).
func (t *Topics) Deliveries(id ProcessID, group string) []GroupDelivery {
	return t.procs[id].deliv[group]
}

// Views returns the membership views a process observed for one group,
// from the per-group index likewise.
func (t *Topics) Views(id ProcessID, group string) []GroupView {
	return t.procs[id].views[group]
}

// View returns the current view of a group at a process (available in
// every mode).
func (t *Topics) View(id ProcessID, group string) GroupView {
	return t.procs[id].mux.View(group)
}

// DeliveryCount returns member data deliveries at a process (maintained
// in every mode).
func (t *Topics) DeliveryCount(id ProcessID) uint64 { return t.procs[id].delivered }

// ClientDeliveryCount returns total fan-out deliveries into a process's
// client endpoints.
func (t *Topics) ClientDeliveryCount(id ProcessID) uint64 {
	return t.procs[id].mux.ClientDelivered()
}

// ClientDeliveries returns one client endpoint's delivery count.
func (t *Topics) ClientDeliveries(id ProcessID, client ClientID) uint64 {
	return t.procs[id].mux.ClientDeliveredFor(client)
}

// ClientQueue returns a client's retained delivery queue (nil unless
// TopicsOptions.RetainClientQueues is set).
func (t *Topics) ClientQueue(id ProcessID, client ClientID) []GroupDelivery {
	return t.procs[id].mux.ClientQueue(client)
}

// Filtered returns how many group data messages a process dropped on the
// header peek without decoding (also surfaced as groups_filtered_total
// in the process's metric scope).
func (t *Topics) Filtered(id ProcessID) uint64 { return t.procs[id].mux.Filtered() }

// SymbolFingerprint returns the hash of a process's interned symbol
// table: equal across all members of a configuration once the same
// prefix of the total order has delivered.
func (t *Topics) SymbolFingerprint(id ProcessID) uint64 {
	return t.procs[id].mux.Symbols().Fingerprint()
}
