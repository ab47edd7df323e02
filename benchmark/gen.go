package main

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"
)

const (
	tick         = time.Millisecond       // open-loop schedule granularity
	backlogSleep = 200 * time.Microsecond // closed-loop pause on ErrBacklog
	stampLen     = 8
)

// payloads carves message bodies of one size: an 8-byte due-time stamp
// followed by bytes fixed by the seed. Bodies come from 64 KiB chunks and
// are never reused — the program retains a submitted payload until it is
// sequenced.
type payloads struct {
	size  int
	body  []byte
	arena []byte
	prev  []byte // the arena before the last carve, for unget
}

func newPayloads(seed int64, size int) *payloads {
	if size < stampLen {
		size = stampLen
	}
	body := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(body)
	return &payloads{size: size, body: body}
}

// next returns a fresh body stamped with due (ns on the workload's clock).
func (p *payloads) next(due int64) []byte {
	if len(p.arena) < p.size {
		n := 64 << 10
		if n < p.size {
			n = p.size
		}
		p.arena = make([]byte, n)
	}
	p.prev = p.arena
	b := p.arena[:p.size:p.size]
	p.arena = p.arena[p.size:]
	copy(b, p.body)
	binary.LittleEndian.PutUint64(b, uint64(due))
	return b
}

// unget returns the last body to the arena after a refused submit.
func (p *payloads) unget() { p.arena = p.prev }

func stampOf(payload []byte) (int64, bool) {
	if len(payload) < stampLen {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(payload)), true
}

// collector is the benchmark's side of the delivery hook for one
// wall-clock ring: per process a delivered count (read by the window
// monitor), the order log, and latency samples binned by sub-window.
// Each process's fields are written only from that process's delivery
// path; the monitor reads the atomics, everything else is read after the
// ring is closed.
type collector struct {
	procs       []*procCollector
	start       int64 // first sub-window opens (ns since epoch)
	winNs       int64
	nWin        int
	sampleEvery uint64
	everyTime   bool // timestamp every delivery (udp4_kill's outage readout)
}

type procCollector struct {
	delivered atomic.Uint64
	order     *orderLog
	lat       [][]float64 // ms, per sub-window
	badStamp  int
	// Set when everyTime: the longest gap between consecutive
	// deliveries that ended after gapFrom.
	lastAt  int64
	gapFrom int64
	maxGap  int64
}

func newCollector(n int, strict bool, sampleEvery uint64) *collector {
	c := &collector{sampleEvery: sampleEvery}
	for i := 0; i < n; i++ {
		c.procs = append(c.procs, &procCollector{order: newOrderLog(string(procName(i)), n, strict)})
	}
	return c
}

// window fixes the measured span: n sub-windows of winNs from start.
func (c *collector) window(start, winNs int64, n int) {
	c.start, c.winNs, c.nWin = start, winNs, n
	for _, p := range c.procs {
		p.lat = make([][]float64, n)
	}
}

// onDeliver is the ring hook.
func (c *collector) onDeliver(i int, d delivery) {
	p := c.procs[i]
	n := p.delivered.Add(1)
	p.order.observe(procIndex(d.Msg.Sender), d.Msg.SenderSeq, d.Config.ID)
	sample := n%c.sampleEvery == 0
	if !sample && !c.everyTime {
		return
	}
	now := nowNs()
	if c.everyTime {
		if p.lastAt != 0 && now > p.gapFrom && now-p.lastAt > p.maxGap {
			p.maxGap = now - p.lastAt
		}
		p.lastAt = now
	}
	if !sample {
		return
	}
	due, ok := stampOf(d.Payload)
	if !ok || due > now {
		p.badStamp++
		return
	}
	if w, ok := windowIndex(now, c.start, c.winNs, c.nWin); ok {
		p.lat[w] = append(p.lat[w], float64(now-due)/1e6)
	}
}

// deliveredEverywhere is the number of messages every listed process has
// delivered: the minimum of their counts.
func (c *collector) deliveredEverywhere(members []int) uint64 {
	min := ^uint64(0)
	for _, i := range members {
		if d := c.procs[i].delivered.Load(); d < min {
			min = d
		}
	}
	return min
}

// latencyWindows pools the listed processes' samples per sub-window.
func (c *collector) latencyWindows(members []int) [][]float64 {
	out := make([][]float64, c.nWin)
	for _, i := range members {
		for w, s := range c.procs[i].lat {
			out[w] = append(out[w], s...)
		}
	}
	return out
}

// genStats is what a generator reports when it stops.
type genStats struct {
	attempted int64
	refused   int64    // open loop: ErrBacklog is a refusal
	retries   int64    // closed loop: ErrBacklog is waited out
	errs      int64    // anything else a submit returned
	accepted  []uint64 // per process
	lateness  [][]float64
}

func (g *genStats) acceptedTotal() uint64 {
	var n uint64
	for _, a := range g.accepted {
		n += a
	}
	return n
}

// closedLoop submits round-robin over targets as fast as the ring
// accepts until the clock passes end; a full backlog is waited out.
func closedLoop(r *wallRing, targets []int, pay *payloads, svc service, end int64) genStats {
	st := genStats{accepted: make([]uint64, len(r.procs))}
	for k := 0; ; k++ {
		now := nowNs()
		if now >= end {
			return st
		}
		i := targets[k%len(targets)]
		for {
			b := pay.next(now)
			err := r.Submit(i, b, svc)
			if err == nil {
				st.attempted++
				st.accepted[i]++
				break
			}
			pay.unget()
			if !errors.Is(err, errBacklog) {
				st.attempted++
				st.errs++
				break
			}
			st.retries++
			time.Sleep(backlogSleep)
			if now = nowNs(); now >= end {
				return st
			}
		}
	}
}

// openLoop submits rate msgs/s on a 1 ms schedule from start to end,
// stamping every submit with its tick's due time. targets(due) names the
// processes taking submits at that instant, so a fault schedule can
// redirect clients. lateness is recorded once per tick — how long after
// its due time the tick's last submit was made — binned like latency.
func openLoop(r *wallRing, targets func(due int64) []int, pay *payloads, svc service,
	rate int, start, end int64, c *collector) genStats {
	st := genStats{accepted: make([]uint64, len(r.procs)), lateness: make([][]float64, c.nWin)}
	per := perTick(rate, tick)
	rr := 0
	for k := 0; ; k++ {
		due := tickDue(start, k, tick)
		if due >= end {
			return st
		}
		sleepUntil(due)
		tg := targets(due)
		for j := 0; j < per; j++ {
			i := tg[rr%len(tg)]
			rr++
			b := pay.next(due)
			st.attempted++
			switch err := r.Submit(i, b, svc); {
			case err == nil:
				st.accepted[i]++
			case errors.Is(err, errBacklog):
				pay.unget()
				st.refused++
			default:
				pay.unget()
				st.errs++
			}
		}
		if w, ok := windowIndex(due, c.start, c.winNs, c.nWin); ok {
			st.lateness[w] = append(st.lateness[w], float64(nowNs()-due)/1e6)
		}
	}
}
