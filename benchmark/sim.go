package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"
)

const (
	simProcs = 8
	simWarm  = 300 * time.Millisecond // virtual: ring formation plus idle rotations
	// T1's refill load (internal/experiments.Throughput): this many
	// messages offered every refillEvery of virtual time, split evenly.
	refillMsgs  = 6000
	refillEvery = 5 * time.Millisecond
	// Virtual time measured per wall second asked for, sized on the
	// 2-core sizing box so a run takes about 0.6 x --seconds of wall time
	// (sim8_sat: ~0.1 virtual s per wall s at ~1 us per delivery).
	satVirtualPerSecond = 60 * time.Millisecond
)

// simCollector is the benchmark's observer on a simulated group: the
// order logs, latency samples in virtual ms binned by virtual
// sub-window, and per-process delivery counts.
type simCollector struct {
	orders    []*orderLog
	delivered []uint64
	self      []uint64 // own messages delivered back to their sender
	total     uint64
	lat       [][]float64
	start     time.Duration
	win       time.Duration
	every     uint64
	badStamp  int
}

func newSimCollector(g *simGroup, strict bool, every uint64) *simCollector {
	c := &simCollector{delivered: make([]uint64, simProcs), self: make([]uint64, simProcs), every: every}
	for i := 0; i < simProcs; i++ {
		c.orders = append(c.orders, newOrderLog(string(procName(i)), simProcs, strict))
	}
	onSimDelivery(g, func(i int, sender procID, seq uint64, payload []byte, cfg configID, at time.Duration) {
		c.delivered[i]++
		c.total++
		s := procIndex(sender)
		if s == i {
			c.self[i]++
		}
		c.orders[i].observe(s, seq, cfg)
		if c.total%c.every != 0 {
			return
		}
		due, ok := stampOf(payload)
		if !ok || time.Duration(due) > at {
			c.badStamp++
			return
		}
		if w, ok := windowIndex(int64(at), int64(c.start), int64(c.win), len(c.lat)); ok {
			c.lat[w] = append(c.lat[w], float64(at-time.Duration(due))/1e6)
		}
	})
	return c
}

func (c *simCollector) window(start, win time.Duration, n int) {
	c.start, c.win, c.lat = start, win, make([][]float64, n)
}

func (c *simCollector) everywhere() uint64 {
	min := c.delivered[0]
	for _, d := range c.delivered {
		if d < min {
			min = d
		}
	}
	return min
}

// simSetup measures set-up: construct the group and run the virtual
// warm-up, `setups` times, keeping the last group.
func simSetup(setups int, build func() *simGroup) (*simGroup, float64) {
	var times []float64
	for k := 0; ; k++ {
		t0 := time.Now()
		g := build()
		g.Run(simWarm)
		times = append(times, time.Since(t0).Seconds())
		if k == setups-1 {
			return g, median(times)
		}
	}
}

// simEdge is a reading at a virtual sub-window edge.
type simEdge struct {
	wall   int64
	cpu    int64
	events uint64 // delivery events at all processes
	host   hostCPU
}

func readSimEdge(events uint64) simEdge {
	return simEdge{wall: nowNs(), cpu: cpuNs(), events: events, host: readHostCPU()}
}

// simWindows reduces edges to the windowed wall-clock metrics, each the
// median over the calm sub-windows. Messages are delivery events divided
// by the group size: on a ring that stays whole that is the number
// delivered everywhere. (The latencies are virtual time and need no such
// care.)
func simWindows(r *result, edges []simEdge) {
	n := len(edges) - 1
	thr, cpu, per, stolen := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for k := 0; k < n; k++ {
		a, b := edges[k], edges[k+1]
		stolen[k] = stolenShare(a.host, b.host)
		thr[k], cpu[k], per[k] = math.NaN(), math.NaN(), math.NaN()
		if ev := float64(b.events - a.events); ev > 0 {
			msgs := ev / simProcs
			thr[k] = msgs / (float64(b.wall-a.wall) / 1e9)
			cpu[k] = float64(b.cpu-a.cpu) / 1e3 / msgs
			per[k] = float64(b.wall-a.wall) / ev
		}
	}
	calm, share := calmWindows(stolen)
	r.set("throughput_msgs_s", medianWhere(thr, calm))
	r.set("cpu_us_per_msg", medianWhere(cpu, calm))
	r.set("sim.wall_ns_per_delivery", medianWhere(per, calm))
	r.set("host.steal_share", stolenShare(edges[0].host, edges[n].host))
	r.set("host.calm_window_share", share)
}

// simMemory fills the allocation metrics from two MemStats readings.
func simMemory(r *result, m0, m1 *runtime.MemStats, events float64) {
	r.set("sim.allocs_per_delivery", ratio(float64(m1.Mallocs-m0.Mallocs), events))
	r.set("sim.bytes_per_delivery", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), events))
}

// simObs reads the group's obs instruments, every process and the
// medium scope summed.
func simObs(g *simGroup) obsReading { return readingOf(g.Metrics().Total) }

// runSimSat is sim8_sat_64B: T1's saturating refill load on the
// simulator with no history retained. Only node, totem, stable, vclock
// and the scheduler run.
func runSimSat(seed int64, seconds float64, traced bool) (*result, error) {
	r := newResult("sim8_sat_64B")
	sc := newScale(seconds)
	g, setupS := simSetup(sc.setups, func() *simGroup { return newSimGroup(simProcs, seed, simSatConfig(), true) })
	col := newSimCollector(g, true, 16)
	pay := newPayloads(seed, 64)

	nWin := windowsFor(seconds)
	win := time.Duration(seconds * float64(satVirtualPerSecond) / float64(nWin)).Round(refillEvery)
	if win < refillEvery {
		win = refillEvery
	}
	// Load for half the measured span before measuring, so the adaptive
	// flow control is at its ceiling when the first sub-window opens.
	loadFrom := simWarm
	start := loadFrom + time.Duration(nWin/2)*win
	end := start + time.Duration(nWin)*win
	col.window(start, win, nWin)

	accepted := make([]uint64, simProcs)
	var shed, attempted int64
	per := (refillMsgs + simProcs - 1) / simProcs
	var refill func()
	refill = func() {
		now := g.Now()
		if now >= end {
			return
		}
		for i := 0; i < simProcs; i++ {
			for k := 0; k < per; k++ {
				if err := g.Submit(procName(i), pay.next(int64(now)), safe); err != nil {
					pay.unget()
					shed++
					continue
				}
				attempted++
				accepted[i]++
			}
		}
		g.At(now+refillEvery, refill)
	}
	g.At(loadFrom, refill)
	g.Run(start)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	obs0 := simObs(g)
	edges := []simEdge{readSimEdge(col.total)}
	for k := 1; k <= nWin; k++ {
		g.Run(start + time.Duration(k)*win)
		edges = append(edges, readSimEdge(col.total))
	}
	runtime.ReadMemStats(&m1)
	obs1 := simObs(g)

	// Drain: no more refills; every accepted message reaches everyone.
	var total uint64
	for _, a := range accepted {
		total += a
	}
	for limit := g.Now() + 2*time.Second; col.everywhere() < total && g.Now() < limit; {
		g.Run(g.Now() + 10*time.Millisecond)
	}

	events := float64(edges[nWin].events - edges[0].events)
	simWindows(r, edges)
	simMemory(r, &m0, &m1, events)
	r.Attempted = attempted
	r.Failed = int64(total - min(total, col.everywhere()))
	for _, o := range col.orders {
		o.checkAccepted(accepted)
	}
	if col.badStamp > 0 {
		col.orders[0].violate("%d deliveries carried no valid due-time stamp", col.badStamp)
	}
	var msgs []string
	r.Violations, msgs = compareOrders(col.orders)
	for _, m := range msgs {
		r.note("violation: %s", m)
	}
	d := obs1.sub(obs0)
	r.set("setup_s", setupS)
	r.set("latency_p50_ms", windowedPercentile(col.lat, 0.50, nil))
	r.set("latency_p99_ms", windowedPercentile(col.lat, 0.99, nil))
	r.set("latency_p999_ms", windowedPercentile(col.lat, 0.999, nil))
	r.set("rss_mb", peakRSSMB())
	layerCounts(r, d, events/simProcs, float64(end-start)/1e3, simProcs)
	r.set("node.backlog_retry_share", ratio(float64(shed), float64(shed+attempted)))
	r.set("node.extra_configs", simObs(g).sub(obs0).configs())
	r.set("sim.peak_pending", float64(g.PeakPending()))
	r.note("sim8_sat_64B: %d simulated procs, netsim delay 50-300 us uniform, no loss; %d msgs offered per %s virtual, Safe, 64 B; %s virtual measured in %d sub-windows; latency is virtual ms",
		simProcs, refillMsgs, refillEvery, end-start, nWin)
	r.note("counts: accepted %d, delivery events in window %.0f, delivered everywhere at end %d", total, events, col.everywhere())
	if x := r.vals["node.extra_configs"]; x != 0 {
		r.Unhealthy = append(r.Unhealthy, fmt.Sprintf("node.extra_configs = %.0f on a steady workload", x))
	}
	if traced {
		runRigs(r, seed, 64, seconds)
	}
	return r, nil
}

const (
	churnRate    = 4000 // msgs/s of virtual time
	episodeEvery = 250 * time.Millisecond
	churnSettle  = 2 * time.Second
	pollEvery    = time.Millisecond
)

// runSimChurn is sim8_churn: the paper's own subject. Seeded fault
// episodes cycle partition, merge, crash, recover under a steady offered
// load, history retained, and the whole execution is checked against the
// specification.
func runSimChurn(seed int64, seconds float64, traced bool) (*result, error) {
	r := newResult("sim8_churn")
	sc := newScale(seconds)
	g, setupS := simSetup(sc.setups, func() *simGroup { return newSimGroup(simProcs, seed, nil, false) })
	col := newSimCollector(g, false, 4)
	pay := newPayloads(seed, 64)
	rng := rand.New(rand.NewSource(seed))

	// Two cycles of four episodes per wall second asked for; the
	// sub-windows hold a whole number of cycles each.
	cycles := int(2 * seconds)
	if cycles < 1 {
		cycles = 1
	}
	windows := windowsFor(seconds)
	if cycles < windows {
		windows = cycles
	}
	cycles -= cycles % windows
	episodes := 4 * cycles
	win := time.Duration(episodes/windows) * episodeEvery
	start := simWarm
	end := start + time.Duration(episodes)*episodeEvery
	col.window(start, win, windows)

	// The fault schedule, fixed by the seed.
	components := [][]int{allOf(simProcs)}
	down, victim := -1, -1
	var reconfig []float64
	unsettled := 0
	var faultAt time.Duration
	var poll func()
	poll = func() {
		comps := make([][]int, 0, len(components))
		for _, c := range components {
			var lc []int
			for _, i := range c {
				if i != down {
					lc = append(lc, i)
				}
			}
			if len(lc) > 0 {
				comps = append(comps, lc)
			}
		}
		switch {
		case simSettled(g, comps):
			reconfig = append(reconfig, float64(g.Now()-faultAt)/1e6)
		case g.Now()-faultAt >= episodeEvery-pollEvery:
			unsettled++
			reconfig = append(reconfig, float64(episodeEvery)/1e6)
		default:
			g.At(g.Now()+pollEvery, poll)
		}
	}
	for e := 0; e < episodes; e++ {
		at := start + time.Duration(e)*episodeEvery
		switch e % 4 {
		case 0:
			perm := rng.Perm(simProcs)
			k := 2 + rng.Intn(simProcs-3) // component sizes 2..6 and 6..2
			a, b := append([]int(nil), perm[:k]...), append([]int(nil), perm[k:]...)
			g.At(at, func() { components = [][]int{a, b} })
			simPartition(g, at, [][]int{a, b})
		case 1:
			g.At(at, func() { components = [][]int{allOf(simProcs)} })
			g.Merge(at)
		case 2:
			victim = rng.Intn(simProcs)
			v := victim
			g.At(at, func() { down = v })
			g.Crash(at, procName(v))
		case 3:
			g.At(at, func() { down = -1 })
			g.Recover(at, procName(victim))
		}
		g.At(at, func() { faultAt = g.Now(); g.At(g.Now()+pollEvery, poll) })
	}

	// Offered load: churnRate msgs/s on a 1 ms virtual schedule, round
	// robin over the processes that are up, every 4th message Safe.
	accepted := make([]uint64, simProcs)
	var refused int64
	per := perTick(churnRate, tick)
	n := 0
	var load func()
	load = func() {
		now := g.Now()
		if now >= end {
			return
		}
		for k := 0; k < per; k++ {
			i := n % simProcs
			n++
			if i == down {
				continue // its clients are down with it
			}
			svc := agreed
			if n%4 == 0 {
				svc = safe
			}
			r.Attempted++
			if err := g.Submit(procName(i), pay.next(int64(now)), svc); err != nil {
				pay.unget()
				refused++
				continue
			}
			accepted[i]++
		}
		g.At(now+tick, load)
	}
	g.At(start, load)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	obs0 := simObs(g)
	edges := []simEdge{readSimEdge(col.total)}
	for k := 1; k <= windows; k++ {
		g.Run(start + time.Duration(k)*win)
		edges = append(edges, readSimEdge(col.total))
	}
	runtime.ReadMemStats(&m1)
	loaded := simObs(g).sub(obs0) // the measured span, for the per-message ratios
	g.Run(end + churnSettle)
	d := simObs(g).sub(obs0) // through the settle, for the per-fault counts

	t0 := time.Now()
	vs := g.Check(true)
	checkNs := float64(time.Since(t0))
	history := len(g.History())

	events := float64(edges[windows].events - edges[0].events)
	simWindows(r, edges)
	simMemory(r, &m0, &m1, events)
	var msgs []string
	r.Violations, msgs = compareOrders(col.orders)
	r.Violations += len(vs)
	for k, v := range vs {
		if k < 4 {
			msgs = append(msgs, v.String())
		}
	}
	for _, m := range msgs {
		r.note("violation: %s", m)
	}
	r.Failed = refused
	r.set("setup_s", setupS)
	r.set("latency_p50_ms", windowedPercentile(col.lat, 0.50, nil))
	r.set("latency_p99_ms", windowedPercentile(col.lat, 0.99, nil))
	r.set("latency_p999_ms", windowedPercentile(col.lat, 0.999, nil))
	r.set("rss_mb", peakRSSMB())
	layerCounts(r, loaded, events/simProcs, float64(end-start)/1e3, simProcs)
	recoveryHists(r, d)
	r.set("membership.reconfig_virtual_ms", median(reconfig))
	r.set("membership.gathers_per_fault", ratio(d.gathers(), float64(episodes)))
	r.set("membership.configs_per_fault", ratio(d.configs(), float64(episodes)))
	r.set("sim.peak_pending", float64(g.PeakPending()))
	r.set("spec.check_ns_per_event", ratio(checkNs, float64(history)))
	r.note("sim8_churn: %d simulated procs, netsim delay 50-300 us uniform, no loss; %d msgs/s virtual (every 4th Safe, 64 B); %d fault episodes %s apart cycling partition, merge, crash, recover; %s settle; Check(true) over %d events; latency is virtual ms",
		simProcs, churnRate, episodes, episodeEvery, churnSettle, history)
	var lost uint64
	for i, a := range accepted {
		lost += a - min(a, col.self[i])
	}
	r.note("counts: attempted %d, refused %d, delivery events in window %.0f, episodes unsettled before the next fault %d", r.Attempted, refused, events, unsettled)
	r.note("%d accepted messages never came back to their sender: they died in a crashed process's volatile queue, which the model allows (Check(true) holds every other sender to self-delivery)", lost)
	if traced {
		runRigs(r, seed, 64, seconds)
	}
	return r, nil
}
