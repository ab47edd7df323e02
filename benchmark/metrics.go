package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef declares one metric: BENCHMARK.json carries the same list,
// and the self-tests hold the two to each other and every workload to
// both.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees; every workload reports
// every one with tracing off. A bound is the share of the parent's
// median by which the metric may worsen. Every bound is the contract's
// ceiling: on the shared 2-core host the run-to-run quartile spread of
// anything that scales with processor speed is 3-5% in a calm hour and
// 20-30% in a disturbed one (README.md, "Steadiness"), and a bound the
// spread exceeds gates nothing; -compare reports such a pairing as
// unresolved.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_msgs_s", "1/s", "higher", 0.25},
	{"cpu_us_per_msg", "us", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.25},
}

// perLayer is the ledger: one module per prefix. A workload that does
// not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "node.submit_ns", Unit: "ns", Better: "lower"},
	{Name: "node.lock_wait_ns", Unit: "ns", Better: "lower"},
	{Name: "node.on_message_self_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "node.backlog_retry_share", Unit: "share", Better: "lower"},
	{Name: "node.extra_configs", Unit: "count", Better: "lower"},
	{Name: "totem.msgs_per_batch", Unit: "count", Better: "higher"},
	{Name: "totem.rotation_us", Unit: "us", Better: "lower"},
	{Name: "totem.rotations_per_msg", Unit: "count", Better: "lower"},
	{Name: "totem.retrans_served_per_msg", Unit: "count", Better: "lower"},
	{Name: "totem.budget_shrinks", Unit: "count", Better: "lower"},
	{Name: "totem.visit_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "totem.safe_latency_predicted_ms", Unit: "ms", Better: "lower"},
	{Name: "stable.put_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "stable.put_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "wire.encode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_errors", Unit: "count", Better: "lower"},
	{Name: "transport.send_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "transport.send_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "transport.packets_per_msg", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "transport.drops", Unit: "count", Better: "lower"},
	{Name: "transport.recv_unattributed_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "daemon.deliver_ns_per_delivery", Unit: "ns", Better: "lower"},
	{Name: "daemon.timer_ops_per_msg", Unit: "count", Better: "lower"},
	{Name: "daemon.timer_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "daemon.new_crash_restarts", Unit: "count", Better: "lower"},
	{Name: "membership.gathers_per_fault", Unit: "count", Better: "lower"},
	{Name: "membership.configs_per_fault", Unit: "count", Better: "lower"},
	{Name: "membership.outage_ms", Unit: "ms", Better: "lower"},
	{Name: "membership.reconfig_virtual_ms", Unit: "ms", Better: "lower"},
	{Name: "evs.recovery_total_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "evs.recovery_exchange_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "evs.recovery_flush_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "netsim.packets_per_msg", Unit: "count", Better: "lower"},
	{Name: "sim.peak_pending", Unit: "count", Better: "lower"},
	{Name: "sim.allocs_per_delivery", Unit: "count", Better: "lower"},
	{Name: "sim.bytes_per_delivery", Unit: "B", Better: "lower"},
	{Name: "sim.wall_ns_per_delivery", Unit: "ns", Better: "lower"},
	{Name: "spec.check_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "groups.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "groups.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "gen.lateness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "host.steal_share", Unit: "share", Better: "lower"},
	{Name: "host.calm_window_share", Unit: "share", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "ledger.coverage", Unit: "share", Better: "higher"},
	{Name: "latency_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "failed_share", Unit: "share", Better: "lower"},
	{Name: "violations", Unit: "count", Better: "lower"},
}

// result is one workload run. vals holds every metric the run measured,
// end-to-end and per-layer alike; emit selects by trace mode.
type result struct {
	Workload  string
	Attempted int64
	Failed    int64
	// Violations counts order-digest and specification breaches;
	// Unhealthy lists why the run was disturbed (late generator, a
	// configuration change on a steady workload). Either makes the run
	// incorrect: its numbers are printed, marked, and "correct" is false.
	Violations int
	Unhealthy  []string
	vals       map[string]float64
	notes      []string
}

func newResult(workload string) *result {
	return &result{Workload: workload, vals: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.vals[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.Violations == 0 && len(r.Unhealthy) == 0 }

// finish derives the accounting metrics every workload shares.
func (r *result) finish() {
	r.set("daemon.new_crash_restarts", restartsSoFar())
	r.set("violations", float64(r.Violations))
	r.set("failed_share", ratio(float64(r.Failed), float64(r.Attempted)))
}

// reported is one metric as printed on the last line.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the contract's last line of standard output.
type line struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

// emit prints every measured metric by name with its unit, then the
// notes, then the result line: the end-to-end metrics with tracing off,
// the per-layer metrics with it on. An end-to-end metric a workload
// failed to produce is an error, not a zero.
func (r *result) emit(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.vals))
	for n := range r.vals {
		if _, ok := units[n]; !ok {
			return fmt.Errorf("workload %s measured undeclared metric %q", r.Workload, n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-42s %16.4f %s\n", n, r.vals[n], units[n])
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, u := range r.Unhealthy {
		fmt.Fprintln(w, "# disturbed run: "+u)
	}
	out := line{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]reported{}}
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok && !traced {
			return fmt.Errorf("workload %s did not measure %s", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = reported{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
