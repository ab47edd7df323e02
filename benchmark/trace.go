package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// spanKind names a boundary the benchmark can reach from outside the
// program. The first three are entries into the node (roots); the rest
// are calls the node makes back out through its Host and Transport while
// an entry is running (children).
type spanKind int

const (
	spanSubmit spanKind = iota
	spanOnMessage
	spanOnTimer
	spanBroadcast
	spanDeliver
	spanDeliverConfig
	spanSetTimer
	spanCancelTimer
	spanTrace
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"node.Submit", "node.OnMessage", "node.OnTimer",
	"transport.Broadcast",
	"host.Deliver", "host.DeliverConfig", "host.SetTimer", "host.CancelTimer", "host.Trace",
}

const (
	keepEntryEvery = 1024 // entries kept whole, with their children
	keepMsgEvery   = 256  // messages followed from submit to every deliver
	maxKeptSpans   = 200000
)

// spanAgg is the count+sum aggregate every span feeds. self is the
// span's duration minus the part its children covered (equal to sum for
// the leaf kinds).
type spanAgg struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	SelfN int64 `json:"self_ns"`
}

// span is one kept span: name, start, end, the span that caused it and
// the identifier its request's spans share.
type span struct {
	Name   string `json:"name"`
	Proc   string `json:"proc"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Root   string `json:"root"`
}

// recorder collects what the traced processes of one ring record. Each
// process aggregates under its own lock; the recorder only holds the
// kept spans and merges aggregates when asked.
type recorder struct {
	mu    sync.Mutex
	procs []*tracedProc
	kept  []span
}

// register adds a process whose aggregates snapshot merges.
func (r *recorder) register(p *tracedProc) {
	r.mu.Lock()
	r.procs = append(r.procs, p)
	r.mu.Unlock()
}

func (r *recorder) keep(spans ...span) {
	r.mu.Lock()
	if len(r.kept)+len(spans) <= maxKeptSpans {
		r.kept = append(r.kept, spans...)
	}
	r.mu.Unlock()
}

// ledger is the aggregate state of traced processes at one instant, or
// the difference of two.
type ledger struct {
	Spans     [numSpanKinds]spanAgg
	LockWaits int64
	LockNs    int64
}

// plus returns l + sign*o.
func (l ledger) plus(o ledger, sign int64) ledger {
	for k := range l.Spans {
		l.Spans[k].Count += sign * o.Spans[k].Count
		l.Spans[k].SumNs += sign * o.Spans[k].SumNs
		l.Spans[k].SelfN += sign * o.Spans[k].SelfN
	}
	l.LockWaits += sign * o.LockWaits
	l.LockNs += sign * o.LockNs
	return l
}

func (l ledger) add(o ledger) ledger { return l.plus(o, 1) }
func (l ledger) sub(o ledger) ledger { return l.plus(o, -1) }

// rootNs is the total time inside node entries, children included: the
// span time the ledger attributes.
func (l ledger) rootNs() int64 {
	return l.Spans[spanSubmit].SumNs + l.Spans[spanOnMessage].SumNs + l.Spans[spanOnTimer].SumNs
}

// snapshot merges every process's aggregates.
func (r *recorder) snapshot() ledger {
	r.mu.Lock()
	procs := append([]*tracedProc(nil), r.procs...)
	r.mu.Unlock()
	var out ledger
	for _, p := range procs {
		p.mu.Lock()
		out = out.add(p.led)
		p.mu.Unlock()
	}
	return out
}

// write stores the kept spans and the window's aggregates as
// benchmark/out/trace-<workload>.json.
func (r *recorder) write(dir, workload string, window ledger) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	aggs := make(map[string]spanAgg, numSpanKinds)
	for k, a := range window.Spans {
		aggs[spanNames[k]] = a
	}
	r.mu.Lock()
	doc := struct {
		Workload   string             `json:"workload"`
		Aggregates map[string]spanAgg `json:"aggregates"`
		LockWaits  int64              `json:"lock_waits"`
		LockWaitNs int64              `json:"lock_wait_ns"`
		Spans      []span             `json:"spans"`
	}{workload, aggs, window.LockWaits, window.LockNs, r.kept}
	b, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}

// tracedProc is one ring process assembled by the benchmark (see
// newTracedProc): it is the node's Host and Transport, forwards every
// call to the real timer, hook and socket transport, and records a span
// around each. All node entry points run under mu, exactly as in
// daemon.Daemon; the wait for mu is recorded as lock wait and is not
// part of the span.
type tracedProc struct {
	idx   int
	id    procID
	hooks ringHooks
	rec   *recorder
	met   *obs.Metrics
	tr    transport.Transport

	mu     sync.Mutex // guards everything below and every node entry
	n      *node.Node
	timers map[node.TimerKind]*time.Timer
	dead   bool
	led    ledger
	// Current entry.
	curKind    spanKind
	curStart   int64
	curChildNs int64
	curKept    []span // non-nil while the current entry is kept whole
	curID      uint64
	entries    uint64
	accepted   uint64 // sender sequence of the last accepted submit
	spanSeq    uint64

	timerWG sync.WaitGroup // one unit per armed timer, released by its callback or its Stop
}

var (
	_ node.Host      = (*tracedProc)(nil)
	_ node.Transport = (*tracedProc)(nil)
)

func (p *tracedProc) nextID() uint64 {
	p.spanSeq++
	return uint64(p.idx+1)<<48 | p.spanSeq
}

// keptSpan renders one span of the current entry for the trace file.
func (p *tracedProc) keptSpan(kind spanKind, t0, t1 int64, id, parent uint64, root string) span {
	return span{Name: spanNames[kind], Proc: string(p.id), Start: t0, End: t1, ID: id, Parent: parent, Root: root}
}

func (p *tracedProc) entryRoot() string { return fmt.Sprintf("entry-%x", p.curID) }

// enter takes the process lock and opens a root span.
func (p *tracedProc) enter(kind spanKind) {
	w0 := nowNs()
	p.mu.Lock()
	t0 := nowNs()
	p.led.LockWaits++
	p.led.LockNs += t0 - w0
	p.open(kind, t0)
}

// open opens a root span at t0 with the process lock held; exit closes it
// and releases the lock.
func (p *tracedProc) open(kind spanKind, t0 int64) {
	p.entries++
	p.curKind, p.curStart, p.curChildNs = kind, t0, 0
	p.curID = p.nextID()
	p.curKept = nil
	if p.entries%keepEntryEvery == 0 {
		p.curKept = make([]span, 0, 8)
	}
}

// exit closes the root span and releases the lock.
func (p *tracedProc) exit() {
	t1 := nowNs()
	a := &p.led.Spans[p.curKind]
	a.Count++
	a.SumNs += t1 - p.curStart
	a.SelfN += t1 - p.curStart - p.curChildNs
	if p.curKept != nil {
		root := p.keptSpan(p.curKind, p.curStart, t1, p.curID, 0, p.entryRoot())
		p.rec.keep(append([]span{root}, p.curKept...)...)
		p.curKept = nil
	}
	p.mu.Unlock()
}

// child records a leaf span that began at t0 inside the current entry.
// msg, when set, is the message the span belongs to; sampled messages'
// spans are kept under the message's identifier.
func (p *tracedProc) child(kind spanKind, t0 int64, msg model.MessageID) {
	t1 := nowNs()
	a := &p.led.Spans[kind]
	a.Count++
	a.SumNs += t1 - t0
	a.SelfN += t1 - t0
	p.curChildNs += t1 - t0
	if p.curKept != nil {
		p.curKept = append(p.curKept, p.keptSpan(kind, t0, t1, p.nextID(), p.curID, p.entryRoot()))
	}
	if msg.SenderSeq != 0 && msg.SenderSeq%keepMsgEvery == 0 {
		p.rec.keep(p.keptSpan(kind, t0, t1, p.nextID(), p.curID, "msg-"+msg.String()))
	}
}

// Submit is the application entry: wallProc.
func (p *tracedProc) Submit(payload []byte, svc service) error {
	p.enter(spanSubmit)
	if p.dead {
		p.exit()
		return transport.ErrClosed
	}
	err := p.n.Submit(payload, svc)
	if err == nil {
		p.accepted++
		if p.accepted%keepMsgEvery == 0 {
			id := model.MessageID{Sender: p.id, SenderSeq: p.accepted}
			p.rec.keep(p.keptSpan(spanSubmit, p.curStart, nowNs(), p.curID, 0, "msg-"+id.String()))
		}
	}
	p.exit()
	return err
}

// onMessage is the transport's handler: the receive-path entry. The
// transport is running before the node exists; newTracedProc holds the
// lock until it does, so the first message waits here.
func (p *tracedProc) onMessage(from procID, msg wire.Message) {
	p.enter(spanOnMessage)
	if !p.dead {
		p.n.OnMessage(from, msg)
	}
	p.exit()
}

// Broadcast implements node.Transport.
func (p *tracedProc) Broadcast(msg wire.Message) {
	t0 := nowNs()
	p.tr.Broadcast(msg)
	p.child(spanBroadcast, t0, model.MessageID{})
}

// SetTimer implements node.Host with wall-clock timers whose callbacks
// Close waits for.
func (p *tracedProc) SetTimer(kind node.TimerKind, d time.Duration) {
	t0 := nowNs()
	p.stopTimer(kind)
	p.timerWG.Add(1)
	p.timers[kind] = time.AfterFunc(d, func() {
		defer p.timerWG.Done()
		p.enter(spanOnTimer)
		if !p.dead {
			p.n.OnTimer(kind)
		}
		p.exit()
	})
	p.child(spanSetTimer, t0, model.MessageID{})
}

// stopTimer disarms a timer; a callback that Stop could no longer
// prevent releases its own wait-group unit.
func (p *tracedProc) stopTimer(kind node.TimerKind) {
	if t, ok := p.timers[kind]; ok {
		if t.Stop() {
			p.timerWG.Done()
		}
		delete(p.timers, kind)
	}
}

// CancelTimer implements node.Host.
func (p *tracedProc) CancelTimer(kind node.TimerKind) {
	t0 := nowNs()
	p.stopTimer(kind)
	p.child(spanCancelTimer, t0, model.MessageID{})
}

// Deliver implements node.Host.
func (p *tracedProc) Deliver(d node.Delivery) {
	t0 := nowNs()
	if p.hooks.onDeliver != nil {
		p.hooks.onDeliver(p.idx, d)
	}
	p.child(spanDeliver, t0, d.Msg)
}

// DeliverConfig implements node.Host.
func (p *tracedProc) DeliverConfig(node.ConfigChange) {
	p.child(spanDeliverConfig, nowNs(), model.MessageID{})
}

// Trace implements node.Host.
func (p *tracedProc) Trace(e model.Event) {
	t0 := nowNs()
	if p.hooks.traceSink != nil {
		p.hooks.traceSink(p.idx, time.Now().UnixNano(), e)
	}
	p.child(spanTrace, t0, model.MessageID{})
}

// Operational implements wallProc.
func (p *tracedProc) Operational(want []procID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead || p.n.Mode() != node.Operational {
		return false
	}
	return p.n.CurrentConfig().Members.Equal(model.NewProcessSet(want...))
}

// Metrics implements wallProc.
func (p *tracedProc) Metrics() *obs.Metrics { return p.met }

// Close silences the node, stops its timers, closes the transport
// (joining its goroutines) and waits for every timer callback already
// under way. Idempotent.
func (p *tracedProc) Close() error {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return nil
	}
	p.dead = true
	for kind := range p.timers {
		p.stopTimer(kind)
	}
	p.mu.Unlock()
	err := p.tr.Close()
	p.timerWG.Wait()
	return err
}
