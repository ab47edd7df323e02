package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

const (
	ringProcs      = 4
	operationalMax = 20 * time.Second
	drainMax       = 10 * time.Second
	latenessMaxMs  = 10 // a generator later than this (windowed p99) disturbs the run
)

// steadySpec is a wall-clock workload with no fault: one ring, one
// generator, a warm-up, a measured span of sub-windows, a drain.
type steadySpec struct {
	name    string
	network string
	closed  bool // closed loop; otherwise open loop at rate msgs/s
	rate    int
	svc     service
	size    int
	// trials splits the measured span over that many rings built one
	// after another, each with its own warm-up and sub-windows; the run
	// reduces the sub-windows of all of them together. Over TCP a ring
	// settles into its own latency regime for as long as it lives
	// (run-to-run quartile spread of latency_p50_ms 18-20% with one ring
	// per run, 5-10% with five), so that workload measures five.
	trials int
}

var (
	udp4Sat = steadySpec{name: "udp4_sat_64B", network: "udp", closed: true, svc: agreed, size: 64, trials: 1}
	tcp4Rt  = steadySpec{name: "tcp4_rate_1KB_safe", network: "tcp", rate: 20000, svc: safe, size: 1024, trials: 5}
)

// scale shortens the fixed phases (warm-up, set-up repeats, drain) when a
// run is sized below the official one, so the self-tests exercise every
// phase in a fraction of a second.
type scale struct {
	seconds float64
	warm    time.Duration
	setups  int
}

// setupBuilds is how many times a run of the official size sets up (builds
// the ring, or constructs and warms up the simulator); setup_s is the
// median. The benchmark contract asks for several set-ups a run; every
// daemon ring build is also one more exposure to daemon.New's set-up race
// (runChild), so the number is kept small.
const setupBuilds = 9

func newScale(seconds float64) scale {
	s := scale{seconds: seconds, warm: time.Second, setups: setupBuilds}
	if seconds < 2 {
		s.warm = time.Duration(seconds * float64(time.Second) / 2)
		s.setups = 1
	}
	return s
}

// perTrial divides a run's scale over n trials: the measured span and the
// set-up repeats are shared out, the warm-up halved.
func (s scale) perTrial(n int) scale {
	if n <= 1 {
		return s
	}
	s.seconds /= float64(n)
	s.warm /= 2
	s.setups = (s.setups + n - 1) / n
	return s
}

// buildRing constructs a ring and waits until every process is
// operational in the full configuration; it returns the wall time from
// the first constructor call to that point.
func buildRing(network string, hooks ringHooks, rec *recorder) (*wallRing, float64, error) {
	t0 := time.Now()
	r, err := newWallRing(ringProcs, network, hooks, rec)
	if err != nil {
		return nil, 0, err
	}
	all := allOf(ringProcs)
	if !r.WaitOperational(all, operationalMax) {
		_ = r.Close()
		return nil, 0, fmt.Errorf("%s ring not operational within %s", network, operationalMax)
	}
	return r, time.Since(t0).Seconds(), nil
}

// setupRepeat builds the ring `setups` times, keeps the last and returns
// every build's set-up time; a run reports the median over all its
// builds (one build takes a millisecond or two and varies by half of
// that). hooks is called once per build, so what a discarded build
// recorded is discarded with it.
func setupRepeat(network string, hooks func() ringHooks, rec *recorder, setups int) (*wallRing, []float64, error) {
	var times []float64
	for k := 0; ; k++ {
		r, s, err := buildRing(network, hooks(), rec)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, s)
		if k == setups-1 {
			return r, times, nil
		}
		if err := r.Close(); err != nil {
			return nil, nil, fmt.Errorf("close ring: %w", err)
		}
	}
}

func allOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// boundary is the monitor's reading at one sub-window edge.
type boundary struct {
	t         int64
	delivered uint64
	cpu       int64
	host      hostCPU
}

// steadyOut is one pass of a steady workload: the end-to-end readings
// plus what the per-layer metrics are derived from.
type steadyOut struct {
	setups []float64 // every ring build's set-up time, s
	// Per sub-window, over every trial of the pass; reduce turns them into
	// the readings below.
	winThr, winCPU, winP50, winP99, winP999, winLate, winStolen []float64

	throughput  float64 // msgs delivered everywhere per wall second
	cpuUsPerMsg float64
	p50, p99    float64
	p999        float64
	latenessP99 float64
	calmShare   float64

	samples    int
	msgs       float64 // delivered everywhere in the measured span
	spanNs     int64
	cpuNs      int64
	host       hostCPU    // over the measured span
	obs        obsReading // over the measured span
	led        ledger     // over the measured span (traced pass only)
	gen        genStats
	extraConfs float64
	violations int
	violMsgs   []string
	shortfall  int64 // accepted messages some process had not delivered when the drain ended
}

// reduce takes every wall-clock reading as the median over the pass's
// calm sub-windows.
func (o *steadyOut) reduce() {
	calm, share := calmWindows(o.winStolen)
	o.calmShare = share
	o.throughput, o.cpuUsPerMsg = medianWhere(o.winThr, calm), medianWhere(o.winCPU, calm)
	o.p50, o.p99, o.p999 = medianWhere(o.winP50, calm), medianWhere(o.winP99, calm), medianWhere(o.winP999, calm)
	o.latenessP99 = medianWhere(o.winLate, calm)
}

// runSteady runs one pass of sp.trials trials and merges them: the
// sub-windows of every trial are pooled, the counts summed. rec non-nil
// selects the traced assembly.
func runSteady(sp steadySpec, seed int64, sc scale, rec *recorder) (*steadyOut, error) {
	m := &steadyOut{}
	for k := 0; k < sp.trials; k++ {
		o, err := runSteadyTrial(sp, seed+int64(k)*7919, sc.perTrial(sp.trials), rec)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", k, err)
		}
		m.setups = append(m.setups, o.setups...)
		m.winThr, m.winCPU = append(m.winThr, o.winThr...), append(m.winCPU, o.winCPU...)
		m.winP50, m.winP99, m.winP999 = append(m.winP50, o.winP50...), append(m.winP99, o.winP99...), append(m.winP999, o.winP999...)
		m.winLate, m.winStolen = append(m.winLate, o.winLate...), append(m.winStolen, o.winStolen...)
		m.samples += o.samples
		m.msgs += o.msgs
		m.spanNs += o.spanNs
		m.cpuNs += o.cpuNs
		m.host.busy += o.host.busy
		m.host.stolen += o.host.stolen
		m.extraConfs += o.extraConfs
		m.violations += o.violations
		m.violMsgs = append(m.violMsgs, o.violMsgs...)
		m.shortfall += o.shortfall
		m.gen.attempted += o.gen.attempted
		m.gen.refused += o.gen.refused
		m.gen.retries += o.gen.retries
		m.gen.errs += o.gen.errs
		m.led = m.led.add(o.led)
		m.obs = m.obs.add(o.obs)
	}
	m.reduce()
	return m, nil
}

// runSteadyTrial builds one ring, loads it, measures the trial's
// sub-windows and drains it.
func runSteadyTrial(sp steadySpec, seed int64, sc scale, rec *recorder) (*steadyOut, error) {
	col := newCollector(ringProcs, true, 16)
	hooks := func() ringHooks { return ringHooks{onDeliver: col.onDeliver} }
	ring, setups, err := setupRepeat(sp.network, hooks, rec, sc.setups)
	if err != nil {
		return nil, err
	}
	defer ring.Close()
	all := allOf(ringProcs)
	out := &steadyOut{setups: setups}

	nWin := windowsFor(sc.seconds)
	winNs := int64(sc.seconds*float64(time.Second)) / int64(nWin)
	genStart := nowNs() + int64(5*time.Millisecond)
	start := genStart + int64(sc.warm)
	end := start + int64(nWin)*winNs
	col.window(start, winNs, nWin)
	obsAtGen := ring.Obs(all)

	pay := newPayloads(seed, sp.size)
	done := make(chan genStats, 1)
	go func() {
		if sp.closed {
			done <- closedLoop(ring, all, pay, sp.svc, end)
			return
		}
		done <- openLoop(ring, func(int64) []int { return all }, pay, sp.svc, sp.rate, genStart, end, col)
	}()

	// The monitor: one reading per sub-window edge. Readings carry their
	// own timestamp, so a late wake-up skews no rate.
	edges := make([]boundary, nWin+1)
	var obs0, obs1 obsReading
	var led0, led1 ledger
	for k := range edges {
		sleepUntil(start + int64(k)*winNs)
		if k == 0 {
			obs0 = ring.Obs(all)
			if rec != nil {
				led0 = rec.snapshot()
			}
		}
		edges[k] = boundary{t: nowNs(), delivered: col.deliveredEverywhere(all), cpu: cpuNs(), host: readHostCPU()}
	}
	obs1 = ring.Obs(all)
	if rec != nil {
		led1 = rec.snapshot()
	}
	out.gen = <-done

	// Drain: every process delivers every accepted message.
	accepted := out.gen.acceptedTotal()
	deadline := time.Now().Add(drainMax)
	for col.deliveredEverywhere(all) < accepted && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	obsEnd := ring.Obs(all)
	if err := ring.Close(); err != nil {
		return nil, fmt.Errorf("close ring: %w", err)
	}

	lat := col.latencyWindows(all)
	for k := 0; k < nWin; k++ {
		a, b := edges[k], edges[k+1]
		msgs := float64(b.delivered - a.delivered)
		cpu := math.NaN()
		if msgs > 0 {
			cpu = float64(b.cpu-a.cpu) / 1e3 / msgs
		}
		out.winThr = append(out.winThr, ratio(msgs, float64(b.t-a.t)/1e9))
		out.winCPU = append(out.winCPU, cpu)
		out.winStolen = append(out.winStolen, stolenShare(a.host, b.host))
		out.winP50 = append(out.winP50, percentileOrNaN(lat[k], 0.50))
		out.winP99 = append(out.winP99, percentileOrNaN(lat[k], 0.99))
		out.winP999 = append(out.winP999, percentileOrNaN(lat[k], 0.999))
		late := math.NaN()
		if out.gen.lateness != nil {
			late = percentileOrNaN(out.gen.lateness[k], 0.99)
		}
		out.winLate = append(out.winLate, late)
		out.samples += len(lat[k])
	}
	first, last := edges[0], edges[nWin]
	out.msgs = float64(last.delivered - first.delivered)
	out.spanNs = last.t - first.t
	out.cpuNs = last.cpu - first.cpu
	out.host = hostCPU{busy: last.host.busy - first.host.busy, stolen: last.host.stolen - first.host.stolen}
	out.obs = obs1.sub(obs0)
	out.led = led1.sub(led0)
	out.extraConfs = obsEnd.sub(obsAtGen).configs()

	var logs []*orderLog
	for _, p := range col.procs {
		p.order.checkAccepted(out.gen.accepted)
		if p.badStamp > 0 {
			p.order.violate("%d deliveries carried no valid due-time stamp", p.badStamp)
		}
		logs = append(logs, p.order)
	}
	out.shortfall = int64(accepted - min(accepted, col.deliveredEverywhere(all)))
	out.violations, out.violMsgs = compareOrders(logs)
	return out, nil
}

// steadyResult turns an untraced pass into the workload's result.
func steadyResult(sp steadySpec, seed int64, o *steadyOut) *result {
	r := newResult(sp.name)
	r.Attempted = o.gen.attempted
	r.Failed = o.gen.refused + o.gen.errs + o.shortfall
	r.Violations = o.violations
	r.set("setup_s", median(o.setups))
	r.set("throughput_msgs_s", o.throughput)
	r.set("cpu_us_per_msg", o.cpuUsPerMsg)
	r.set("latency_p50_ms", o.p50)
	r.set("latency_p99_ms", o.p99)
	r.set("latency_p999_ms", o.p999)
	r.set("rss_mb", peakRSSMB())
	r.set("node.extra_configs", o.extraConfs)
	r.set("gen.lateness_p99_ms", o.latenessP99)
	r.set("host.steal_share", ratio(float64(o.host.stolen), float64(o.host.busy)))
	r.set("host.calm_window_share", o.calmShare)
	layerCounts(r, o.obs, o.msgs, float64(o.spanNs)/1e3, ringProcs)
	predicted := r.vals["totem.rotation_us"] * 2.5 / 1e3
	r.set("totem.safe_latency_predicted_ms", predicted)
	r.note("%s: %d procs over loopback %s, no injected delay; %d trial(s), %d sub-windows in all, %.0f%% of them calm (the hypervisor withheld at most %.0f%% of the busy processor time); %d latency samples (1 in 16 deliveries, every process); GOMAXPROCS left at nproc",
		sp.name, ringProcs, sp.network, sp.trials, len(o.winThr), 100*o.calmShare, 100*calmSteal, o.samples)
	r.note("over all sub-windows, calm or not: throughput %.0f msgs/s, %.3f us CPU/msg, p50 %.3f ms, p99 %.3f ms; host.steal_share %.3f",
		medianWhere(o.winThr, nil), medianWhere(o.winCPU, nil), medianWhere(o.winP50, nil), medianWhere(o.winP99, nil), r.vals["host.steal_share"])
	if sp.svc == safe {
		r.note("analytical check: Safe latency predicted from totem.rotation_us x 2.5 = %.3f ms, observed latency_p50_ms = %.3f ms", predicted, o.p50)
	}
	for _, m := range o.violMsgs {
		r.note("violation: %s", m)
	}
	if o.extraConfs != 0 {
		r.Unhealthy = append(r.Unhealthy, fmt.Sprintf("node.extra_configs = %.0f on a steady workload", o.extraConfs))
	}
	if o.latenessP99 > latenessMaxMs {
		r.Unhealthy = append(r.Unhealthy, fmt.Sprintf("gen.lateness_p99_ms = %.2f exceeds %d ms", o.latenessP99, latenessMaxMs))
	}
	return r
}

// runSteadyWorkload is the whole of workloads 1 and 2. With tracing off
// it is one daemon pass. With tracing on it is a half-length daemon pass
// for reference, then a half-length pass over the traced assembly whose
// spans fill the ledger, then the isolated rigs.
func runSteadyWorkload(sp steadySpec, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	if !traced {
		o, err := runSteady(sp, seed, newScale(seconds), nil)
		if err != nil {
			return nil, err
		}
		return steadyResult(sp, seed, o), nil
	}
	sc := newScale(seconds / 2)
	sc.setups = 1
	ref, err := runSteady(sp, seed, sc, nil)
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	o, err := runSteady(sp, seed, sc, rec)
	if err != nil {
		return nil, err
	}
	r := steadyResult(sp, seed, o)
	led := o.led
	msgs := o.msgs
	entries := led.Spans[spanSubmit].Count + led.Spans[spanOnMessage].Count + led.Spans[spanOnTimer].Count
	timers := led.Spans[spanSetTimer].Count + led.Spans[spanCancelTimer].Count
	timerNs := led.Spans[spanSetTimer].SumNs + led.Spans[spanCancelTimer].SumNs
	r.set("node.submit_ns", ratio(float64(led.Spans[spanSubmit].SumNs), float64(led.Spans[spanSubmit].Count)))
	r.set("node.lock_wait_ns", ratio(float64(led.LockNs), float64(entries)))
	r.set("node.on_message_self_ns_per_msg", ratio(float64(led.Spans[spanOnMessage].SelfN), msgs))
	r.set("transport.send_ns_per_msg", ratio(float64(led.Spans[spanBroadcast].SumNs), msgs))
	r.set("transport.send_ns_per_call", ratio(float64(led.Spans[spanBroadcast].SumNs), float64(led.Spans[spanBroadcast].Count)))
	r.set("daemon.deliver_ns_per_delivery", ratio(float64(led.Spans[spanDeliver].SumNs), float64(led.Spans[spanDeliver].Count)))
	r.set("daemon.timer_ops_per_msg", ratio(float64(timers), msgs))
	r.set("daemon.timer_ns_per_msg", ratio(float64(timerNs), msgs))
	// The ledger: process CPU per message = span self times + what no
	// span covers (socket reads, decode, the runtime, the generator).
	attributed := float64(led.rootNs())
	r.set("transport.recv_unattributed_ns_per_msg", ratio(float64(o.cpuNs)-attributed, msgs))
	r.set("ledger.coverage", ratio(attributed, float64(o.cpuNs)))
	if sp.closed {
		r.set("trace.overhead_share", 1-ratio(o.throughput, ref.throughput))
	} else {
		r.set("trace.overhead_share", ratio(o.cpuUsPerMsg, ref.cpuUsPerMsg)-1)
	}
	r.note("ledger over %.0f msgs delivered everywhere, ns per msg (self time = span minus children):", msgs)
	sum := 0.0
	for k := spanKind(0); k < numSpanKinds; k++ {
		self := ratio(float64(led.Spans[k].SelfN), msgs)
		sum += self
		r.note("  %-22s self %10.1f  calls/msg %8.4f", spanNames[k], self, ratio(float64(led.Spans[k].Count), msgs))
	}
	un := r.vals["transport.recv_unattributed_ns_per_msg"]
	r.note("  %-22s      %10.1f", "unattributed", un)
	r.note("  sum %.1f + unattributed %.1f = %.1f ns = process CPU per msg %.1f ns (traced pass); untraced reference pass %.1f ns",
		sum, un, sum+un, ratio(float64(o.cpuNs), msgs), ratio(float64(ref.cpuNs), ref.msgs))
	r.note("lock wait %.1f ns per msg is waiting, not CPU, and is outside the spans", ratio(float64(led.LockNs), msgs))
	r.note("reference pass: throughput %.0f msgs/s, %.3f us CPU/msg; traced pass: %.0f msgs/s, %.3f us CPU/msg",
		ref.throughput, ref.cpuUsPerMsg, o.throughput, o.cpuUsPerMsg)
	path, err := rec.write(outDir, sp.name, led)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	r.note("kept spans written to %s", path)
	r.Violations += ref.violations
	runRigs(r, seed, sp.size, seconds)
	return r, nil
}

// --- udp4_kill ---------------------------------------------------------

const (
	killRate   = 10000
	killVictim = ringProcs - 1
	// The victim takes no submit in its last killQuiet before the kill:
	// its clients have been redirected, so nothing it accepted dies in
	// its queue and the workload has no failed operation by design.
	killQuiet = 50 * time.Millisecond
)

// killPlan is one trial's timeline, relative to the generator's start.
type killPlan struct {
	warm, kill, end time.Duration
}

func newKillPlan(seconds float64) (killPlan, int) {
	if seconds < 3 {
		return killPlan{warm: 100 * time.Millisecond, kill: 300 * time.Millisecond, end: 1500 * time.Millisecond}, 1
	}
	trials := int(seconds / 3.3)
	if trials < 1 {
		trials = 1
	}
	return killPlan{warm: 300 * time.Millisecond, kill: time.Second, end: 3 * time.Second}, trials
}

// timedEvent is one formal-model event with the unix-nano timestamp the
// program gave it.
type timedEvent struct {
	t int64
	e modelEvent
}

// killTrial is what one trial measured.
type killTrial struct {
	setups                            []float64
	outageMs, throughput, cpuUsPerMsg float64
	p50, p99, p999                    float64
	samples                           int
	attempted, failed                 int64
	violations                        int
	violMsgs                          []string
	afterKill                         obsReading // survivors, kill to end
	latenessP99                       float64
	checkNs                           float64
	events                            int
	msgs                              float64
	spanUs                            float64
	whole                             obsReading
	host                              hostCPU // over the measured span
}

func runKillTrial(seed int64, plan killPlan, sc scale) (*killTrial, error) {
	col := newCollector(ringProcs, true, 4)
	col.everyTime = true
	// Per process, appended to under that process's lock. Sized for the
	// trial up front and emptied for each build (the ring before it is
	// closed by then), so what rss_mb reads on this workload is the trace
	// and the checker, not the garbage of growing slices.
	traces := make([][]timedEvent, ringProcs)
	for i := range traces {
		traces[i] = make([]timedEvent, 0, int(1.5*killRate*plan.end.Seconds()))
	}
	hooks := func() ringHooks {
		for i := range traces {
			traces[i] = traces[i][:0]
		}
		return ringHooks{
			onDeliver: col.onDeliver,
			traceSink: func(i int, t int64, e modelEvent) { traces[i] = append(traces[i], timedEvent{t, e}) },
		}
	}
	ring, setups, err := setupRepeat("udp", hooks, nil, sc.setups)
	if err != nil {
		return nil, err
	}
	defer ring.Close()
	all := allOf(ringProcs)
	survivors := all[:killVictim]
	tr := &killTrial{setups: setups}

	genStart := nowNs() + int64(5*time.Millisecond)
	start := genStart + int64(plan.warm)
	killAt := genStart + int64(plan.kill)
	end := genStart + int64(plan.end)
	col.window(start, end-start, 1)
	for _, i := range survivors {
		col.procs[i].gapFrom = killAt
	}
	targets := func(due int64) []int {
		if due >= killAt-int64(killQuiet) {
			return survivors
		}
		return all
	}
	pay := newPayloads(seed, 64)
	done := make(chan genStats, 1)
	go func() { done <- openLoop(ring, targets, pay, agreed, killRate, genStart, end, col) }()

	sleepUntil(start)
	obsStart := ring.Obs(all)
	first := boundary{t: nowNs(), delivered: col.deliveredEverywhere(survivors), cpu: cpuNs(), host: readHostCPU()}
	sleepUntil(killAt)
	obsKill := ring.Obs(survivors)
	if err := ring.Kill(killVictim); err != nil {
		return nil, fmt.Errorf("kill: %w", err)
	}
	sleepUntil(end)
	last := boundary{t: nowNs(), delivered: col.deliveredEverywhere(survivors), cpu: cpuNs(), host: readHostCPU()}
	gen := <-done

	accepted := gen.acceptedTotal()
	deadline := time.Now().Add(drainMax)
	for col.deliveredEverywhere(survivors) < accepted && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tr.afterKill = ring.Obs(survivors).sub(obsKill)
	tr.whole = ring.Obs(all).sub(obsStart)
	if err := ring.Close(); err != nil {
		return nil, fmt.Errorf("close ring: %w", err)
	}

	tr.msgs = float64(last.delivered - first.delivered)
	tr.host = hostCPU{busy: last.host.busy - first.host.busy, stolen: last.host.stolen - first.host.stolen}
	tr.spanUs = float64(last.t-first.t) / 1e3
	tr.throughput = ratio(tr.msgs, float64(last.t-first.t)/1e9)
	tr.cpuUsPerMsg = ratio(float64(last.cpu-first.cpu)/1e3, tr.msgs)
	lat := col.latencyWindows(survivors)
	tr.samples = len(lat[0])
	tr.p50 = percentile(lat[0], 0.50)
	tr.p99 = percentile(lat[0], 0.99)
	tr.p999 = percentile(lat[0], 0.999)
	tr.latenessP99 = percentile(gen.lateness[0], 0.99)
	for _, i := range survivors {
		if g := float64(col.procs[i].maxGap) / 1e6; g > tr.outageMs {
			tr.outageMs = g
		}
	}
	tr.attempted = gen.attempted
	var logs []*orderLog
	for _, p := range col.procs {
		p.order.checkAccepted(gen.accepted)
		logs = append(logs, p.order)
	}
	// Failed: refused or errored submits, plus accepted messages some
	// survivor had not delivered when the drain ended.
	tr.failed = gen.refused + gen.errs + int64(accepted-min(accepted, col.deliveredEverywhere(survivors)))
	tr.violations, tr.violMsgs = compareOrders(logs)

	// Certify the merged trace as evsd -check does: interleave by the
	// program's own timestamps, each process's order preserved on ties.
	n := 0
	for _, t := range traces {
		n += len(t)
	}
	merged := make([]timedEvent, 0, n)
	for _, t := range traces {
		merged = append(merged, t...)
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].t < merged[j].t })
	events := make([]modelEvent, len(merged))
	for i, te := range merged {
		events[i] = te.e
	}
	traces, merged = nil, nil
	runtime.GC() // the checker starts from the events alone
	t0 := time.Now()
	vs := certify(events)
	tr.checkNs = float64(time.Since(t0))
	tr.events = len(events)
	tr.violations += len(vs)
	for k, v := range vs {
		if k < 4 {
			tr.violMsgs = append(tr.violMsgs, v.String())
		}
	}
	return tr, nil
}

func runKillWorkload(seed int64, seconds float64, traced bool) (*result, error) {
	plan, trials := newKillPlan(seconds)
	sc := newScale(seconds).perTrial(trials) // only the set-up repeats; the plan times the trial
	r := newResult("udp4_kill")
	var setup, outage, thr, cpu, p50, p99, p999, late []float64
	var after, whole obsReading
	var host hostCPU
	var checkNs, events, msgs, spanUs float64
	samples := 0
	for k := 0; k < trials; k++ {
		tr, err := runKillTrial(seed+int64(k)*7919, plan, sc)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", k, err)
		}
		setup = append(setup, tr.setups...)
		outage = append(outage, tr.outageMs)
		thr = append(thr, tr.throughput)
		cpu = append(cpu, tr.cpuUsPerMsg)
		p50 = append(p50, tr.p50)
		p99 = append(p99, tr.p99)
		p999 = append(p999, tr.p999)
		late = append(late, tr.latenessP99)
		r.Attempted += tr.attempted
		r.Failed += tr.failed
		r.Violations += tr.violations
		for _, m := range tr.violMsgs {
			r.note("violation (trial %d): %s", k, m)
		}
		after, whole = after.add(tr.afterKill), whole.add(tr.whole)
		host.busy, host.stolen = host.busy+tr.host.busy, host.stolen+tr.host.stolen
		checkNs += tr.checkNs
		events += float64(tr.events)
		msgs += tr.msgs
		spanUs += tr.spanUs
		samples += tr.samples
		r.note("trial %d: outage %.1f ms, p99 %.1f ms, %d trace events certified, %d violations", k, tr.outageMs, tr.p99, tr.events, tr.violations)
	}
	r.set("setup_s", median(setup))
	r.set("throughput_msgs_s", median(thr))
	r.set("cpu_us_per_msg", median(cpu))
	r.set("latency_p50_ms", median(p50))
	r.set("latency_p99_ms", median(p99))
	r.set("latency_p999_ms", median(p999))
	r.set("rss_mb", peakRSSMB())
	r.set("membership.outage_ms", median(outage))
	r.set("gen.lateness_p99_ms", median(late))
	r.set("host.steal_share", ratio(float64(host.stolen), float64(host.busy)))
	faults := float64(trials)
	r.set("membership.gathers_per_fault", ratio(after.gathers(), faults))
	r.set("membership.configs_per_fault", ratio(after.configs(), faults))
	recoveryHists(r, after)
	layerCounts(r, whole, msgs, spanUs, ringProcs)
	r.set("spec.check_ns_per_event", ratio(checkNs, events))
	r.note("udp4_kill: %d trials x (%d procs over loopback udp, open loop %d msgs/s Agreed 64 B, p%02d closed with no goodbye at %s, submits continue on schedule to the survivors until %s); %d latency samples",
		trials, ringProcs, killRate, killVictim+1, plan.kill, plan.end, samples)
	r.note("outage split: TokenLoss 400 ms + gather/commit + recovery (evs.recovery_total_ms_p50 = %.1f ms: exchange %.1f + flush %.1f); observed membership.outage_ms = %.1f",
		r.vals["evs.recovery_total_ms_p50"], r.vals["evs.recovery_exchange_ms_p50"], r.vals["evs.recovery_flush_ms_p50"], median(outage))
	if l := median(late); l > latenessMaxMs {
		r.Unhealthy = append(r.Unhealthy, fmt.Sprintf("gen.lateness_p99_ms = %.2f exceeds %d ms", l, latenessMaxMs))
	}
	if traced {
		runRigs(r, seed, 64, seconds)
	}
	return r, nil
}
