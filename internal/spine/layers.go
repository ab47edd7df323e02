package spine

import (
	"time"

	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/primary"
	"repro/internal/vsfilter"
)

// Section 5 of the paper stacks two filters on the EVS service: the
// primary component algorithm and the virtual synchrony filter. They hang
// off the recorder, so they run on every runtime. Their state machines are
// per process and touched only on that process's event path (under its
// lock); what they decide is recorded under the recorder's lock.

// Envelope tags multiplex the EVS payload between the application and the
// primary-component layer.
const (
	tagApp     byte = 0
	tagPrimary byte = 1
)

// PrimaryEvent reports the primary component algorithm's verdict for a
// regular configuration.
type PrimaryEvent struct {
	Config  model.Configuration
	Primary bool
	// Prev is the previous primary component the verdict was computed
	// against (zero for the first).
	Prev model.Configuration
	Time time.Duration
}

// VSEvent is an output of the virtual synchrony filter at one process:
// either a view change or a delivery within a view.
type VSEvent struct {
	// ViewChange is set for view events.
	ViewChange *vsfilter.View
	// Deliver is set for deliveries.
	Deliver *vsfilter.Deliver
	Time    time.Duration
}

// layers is one process's Section 5 state.
type layers struct {
	prim   *primary.Protocol
	filter *vsfilter.Filter
}

// newLayers builds the enabled layers for a (re)starting process; last
// and attempt are the primary layer's persisted knowledge.
func (r *Recorder) newLayers(id model.ProcessID, last, attempt model.Configuration) layers {
	var l layers
	if r.opts.Primary {
		l.prim = primary.New(id, r.universe, last, attempt)
	}
	if r.opts.VS {
		l.filter = vsfilter.New(id)
	}
	return l
}

// wrapApp prefixes the payload with the application envelope tag, carving
// the buffer from the process's chunked arena (one allocation per chunk,
// not per submission).
//
//evs:noalloc
func (p *Proc) wrapApp(payload []byte) []byte {
	n := len(payload) + 1
	if len(p.arena) < n {
		grow := 16 << 10
		if grow < n {
			grow = n
		}
		p.arena = make([]byte, grow)
	}
	w := p.arena[:n:n]
	p.arena = p.arena[n:]
	w[0] = tagApp
	copy(w[1:], payload)
	return w
}

// Crash fails a process: volatile state is lost, stable storage survives.
// The medium needs no help; a down node ignores what still arrives. A
// crash at an unknown process is a no-op.
func (r *Recorder) Crash(id model.ProcessID) {
	p := r.procs[id]
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.node.Mode() == node.Down {
		return
	}
	p.node.Crash()
	if r.opts.VS {
		r.traceVS(vsfilter.TraceEvent{Type: vsfilter.EventStop, Proc: id})
	}
}

// Recover restarts a failed process under the same identifier with its
// stable storage intact. The primary layer reloads its persisted
// knowledge; the VS filter restarts blocked (a recovered process rejoins
// the primary component through Rule 4). A recovery at an unknown process
// is a no-op.
func (r *Recorder) Recover(id model.ProcessID) {
	p := r.procs[id]
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.node.Mode() != node.Down {
		return
	}
	rec := p.store.Load()
	p.layers = r.newLayers(id, rec.LastPrimary, rec.PrimaryAttempt)
	p.node.Recover()
}

// onPrimaryMessage feeds a delivered primary-layer message to the
// algorithm.
func (r *Recorder) onPrimaryMessage(p *Proc, body []byte) {
	if p.layers.prim == nil {
		return
	}
	if m, err := primary.Decode(body); err == nil {
		r.applyPrimary(p, p.layers.prim.OnMessage(m))
	}
}

// applyPrimary executes the primary protocol's requested actions at p.
func (r *Recorder) applyPrimary(p *Proc, acts []primary.Action) {
	for _, a := range acts {
		switch act := a.(type) {
		case primary.Broadcast:
			payload, err := primary.Encode(act.Msg)
			if err != nil {
				r.primaryEncodeErrors.Add(1)
				continue
			}
			// Primary-layer messages ride the safe service. A refusal
			// (the process is down or mid-recovery) is expected under
			// faults; it is counted rather than silently dropped so
			// tests and operators can see lost protocol traffic.
			if err := p.node.Submit(append([]byte{tagPrimary}, payload...), model.Safe); err != nil {
				r.primaryRejected.Add(1)
			}
		case primary.PersistAttempt:
			rec := p.store.Load()
			rec.PrimaryAttempt = act.Cfg
			p.store.Save(rec)
		case primary.PersistPrimary:
			rec := p.store.Load()
			rec.LastPrimary = act.Cfg
			rec.PrimaryAttempt = model.Configuration{}
			p.store.Save(rec)
		case primary.Decided:
			r.mu.Lock()
			p.log.primaryEvs = append(p.log.primaryEvs, PrimaryEvent{
				Config:  act.Cfg,
				Primary: act.Primary,
				Prev:    act.Prev,
				Time:    r.clock.Now(),
			})
			if act.Primary {
				r.markPrimaryTrace(p.id, act.Cfg.ID)
			}
			r.mu.Unlock()
			if f := p.layers.filter; f != nil {
				inView := !f.CurrentView().ID.IsZero()
				r.recordVS(p, f.OnPrimaryDecision(act.Cfg, act.Primary, act.Prev))
				if !act.Primary && inView {
					// Leaving the primary component is failure in
					// Birman's primary-partition model: record the
					// stop so the completeness conditions treat the
					// process's missing deliveries as extendable.
					r.traceVS(vsfilter.TraceEvent{Type: vsfilter.EventStop, Proc: p.id})
				}
			}
		}
	}
}

// markPrimaryTrace annotates the process's deliver_conf trace event for
// the decided configuration with the primary verdict, so the specification
// checker can verify Section 2.2. The caller holds r.mu.
func (r *Recorder) markPrimaryTrace(id model.ProcessID, cfg model.ConfigID) {
	events := r.history.Events()
	for i := len(events) - 1; i >= 0; i-- {
		if e := &events[i]; e.Type == model.EventDeliverConf && e.Proc == id && e.Config == cfg {
			e.Primary = true
			return
		}
	}
}

// recordVS records the VS filter's outputs at p.
func (r *Recorder) recordVS(p *Proc, outs []vsfilter.Output) {
	if len(outs) == 0 {
		return
	}
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, o := range outs {
		switch out := o.(type) {
		case vsfilter.ViewChange:
			v := out.View
			p.log.vsEvents = append(p.log.vsEvents, VSEvent{ViewChange: &v, Time: now})
			r.vsTrace = append(r.vsTrace, vsfilter.TraceEvent{
				Type: vsfilter.EventView, Proc: p.id, View: v.ID, Members: v.Members,
			})
		case vsfilter.Deliver:
			d := out
			p.log.vsEvents = append(p.log.vsEvents, VSEvent{Deliver: &d, Time: now})
			r.vsTrace = append(r.vsTrace, vsfilter.TraceEvent{
				Type: vsfilter.EventDeliver, Proc: p.id, View: d.View, Msg: d.Msg,
			})
		}
	}
}

// traceVS appends one event to the virtual synchrony model trace.
func (r *Recorder) traceVS(e vsfilter.TraceEvent) {
	r.mu.Lock()
	r.vsTrace = append(r.vsTrace, e)
	r.mu.Unlock()
}

// traceVSSend lets the VS layer observe an accepted submission for the
// model checker. The message identifier is the one just assigned.
func (r *Recorder) traceVSSend(p *Proc) {
	if f := p.layers.filter; f != nil && !f.Blocked() {
		r.traceVS(vsfilter.TraceEvent{
			Type: vsfilter.EventSend,
			Proc: p.id,
			Msg:  model.MessageID{Sender: p.id, SenderSeq: p.store.SenderSeq()},
		})
	}
}

// PrimaryEvents returns the primary verdicts observed at a process.
func (r *Recorder) PrimaryEvents(id model.ProcessID) []PrimaryEvent {
	return view(r, &r.logOf(id).primaryEvs)
}

// VSEvents returns the virtual synchrony events at a process.
func (r *Recorder) VSEvents(id model.ProcessID) []VSEvent {
	return view(r, &r.logOf(id).vsEvents)
}

// CheckVS verifies the filtered execution against the virtual synchrony
// model (completeness C1-C3, legality L1-L5).
func (r *Recorder) CheckVS(settled bool) []vsfilter.Violation {
	return vsfilter.Check(view(r, &r.vsTrace), settled)
}
