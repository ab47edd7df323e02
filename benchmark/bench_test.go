package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

// testSize is the self-tests' run length: every phase of every workload
// runs, in a fraction of a second.
const testSize = 0.3

// TestSpecMatchesDeclarations holds the checked-in BENCHMARK.json to the
// workloads and metrics this package declares.
func TestSpecMatchesDeclarations(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := printSpec(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Fatalf("BENCHMARK.json differs from the declarations; regenerate it with\n  bash benchmark/run.sh -print-spec > BENCHMARK.json")
	}
}

func metricNames(t *testing.T, r *result, traced bool) []string {
	t.Helper()
	var out bytes.Buffer
	if err := r.emit(&out, traced); err != nil {
		t.Fatal(err)
	}
	l, err := lastLine(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range l.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func declaredNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsEmitDeclaredMetrics runs each workload once, traced pass
// included, and checks that it emits exactly the declared end-to-end
// names with tracing off and exactly the declared per-layer names with
// it on, every end-to-end value non-zero, and nothing failed.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runWorkload(w.name, 1, testSize, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := strings.Join(metricNames(t, r, false), " "), strings.Join(declaredNames(spec.EndToEnd), " "); got != want {
				t.Errorf("end-to-end names:\n got %s\nwant %s", got, want)
			}
			if got, want := strings.Join(metricNames(t, r, true), " "), strings.Join(declaredNames(spec.PerLayer), " "); got != want {
				t.Errorf("per-layer names:\n got %s\nwant %s", got, want)
			}
			for _, d := range spec.EndToEnd {
				if v := r.vals[d.Name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.Name, v)
				}
			}
			if r.Violations != 0 || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("violations %d, failed %d of %d attempted; notes:\n%s", r.Violations, r.Failed, r.Attempted, strings.Join(r.notes, "\n"))
			}
		})
	}
}

// TestSimSameSeedSameCounts: the simulator workloads repeat exactly, so a
// count can carry a claim. Everything that is not a wall-clock reading
// must be identical between two runs of one seed.
func TestSimSameSeedSameCounts(t *testing.T) {
	exact := []string{
		"latency_p50_ms", "latency_p99_ms", "latency_p999_ms", "membership.reconfig_virtual_ms",
		"membership.gathers_per_fault", "membership.configs_per_fault", "netsim.packets_per_msg",
		"totem.msgs_per_batch", "totem.rotation_us", "totem.rotations_per_msg", "totem.retrans_served_per_msg",
		"totem.budget_shrinks", "sim.peak_pending", "node.backlog_retry_share", "evs.recovery_total_ms_p50",
	}
	for _, name := range []string{"sim8_sat_64B", "sim8_churn"} {
		a, err := runWorkload(name, 7, testSize, false, "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(name, 7, testSize, false, "")
		if err != nil {
			t.Fatal(err)
		}
		if a.Attempted != b.Attempted || a.Failed != b.Failed || a.Violations != b.Violations {
			t.Errorf("%s: accounting differs: %d/%d/%d vs %d/%d/%d", name, a.Attempted, a.Failed, a.Violations, b.Attempted, b.Failed, b.Violations)
		}
		for _, m := range exact {
			if a.vals[m] != b.vals[m] {
				t.Errorf("%s: %s = %v then %v under one seed", name, m, a.vals[m], b.vals[m])
			}
		}
		c, err := runWorkload(name, 8, testSize, false, "")
		if err != nil {
			t.Fatal(err)
		}
		if c.vals["latency_p50_ms"] == a.vals["latency_p50_ms"] && c.vals["netsim.packets_per_msg"] == a.vals["netsim.packets_per_msg"] {
			t.Errorf("%s: another seed gave the same readings; the seed is not reaching the inputs", name)
		}
	}
}

// testConfigID names a regular configuration.
func testConfigID(seq uint64) configID { return model.RegularID(seq, procName(0)) }

// feed delivers the sequence (sender, seq) pairs to a fresh strict log.
func feed(proc string, pairs [][2]uint64) *orderLog {
	o := newOrderLog(proc, 2, true)
	for _, p := range pairs {
		o.observe(int(p[0]), p[1], testConfigID(1))
	}
	return o
}

func TestOrderDigestFlags(t *testing.T) {
	var good [][2]uint64
	for i := uint64(1); i <= 100; i++ {
		good = append(good, [2]uint64{0, i}, [2]uint64{1, i})
	}
	clone := func() [][2]uint64 { return append([][2]uint64(nil), good...) }

	if n, msgs := compareOrders([]*orderLog{feed("p01", good), feed("p02", good), feed("p03", good[:131])}); n != 0 {
		t.Fatalf("equal sequences and a prefix flagged: %v", msgs)
	}

	// A swapped pair from different senders keeps both per-sender FIFO
	// orders intact: only the cross-process digest can see it.
	swapped := clone()
	swapped[40], swapped[41] = swapped[41], swapped[40]
	if n, _ := compareOrders([]*orderLog{feed("p01", good), feed("p02", swapped)}); n == 0 {
		t.Error("swapped pair not flagged")
	}
	// The same swap near the end, past the last checkpoint both reached.
	swapped = clone()
	swapped[196], swapped[197] = swapped[197], swapped[196]
	if n, _ := compareOrders([]*orderLog{feed("p01", good), feed("p02", swapped)}); n == 0 {
		t.Error("swapped pair after the last checkpoint not flagged")
	}

	dup := append(clone()[:50], good[49:]...)
	if o := feed("p02", dup); o.nBad == 0 {
		t.Error("duplicate not flagged")
	}
	missing := append(clone()[:50], good[51:]...)
	if o := feed("p02", missing); o.nBad == 0 {
		t.Error("missing message not flagged")
	}

	// On a workload with partitions a gap is legal, a duplicate is not.
	loose := newOrderLog("p02", 2, false)
	for _, p := range missing {
		loose.observe(int(p[0]), p[1], testConfigID(1))
	}
	if loose.nBad != 0 {
		t.Errorf("gap flagged on a non-strict log: %v", loose.bad)
	}
	invented := feed("p02", good)
	invented.checkAccepted([]uint64{100, 99})
	if invented.nBad == 0 {
		t.Error("invented message not flagged")
	}
}

func TestWindowedPercentile(t *testing.T) {
	if got := percentile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := percentile([]float64{10, 20, 30, 40, 50}, 0.99); math.Abs(got-49.6) > 1e-9 {
		t.Errorf("p99 of 10..50 = %v, want 49.6", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Ten windows with p99 near 10 ms; one of them stalled at 389 ms. The
	// windowed reading must not move.
	var windows [][]float64
	for w := 0; w < 10; w++ {
		var s []float64
		for i := 0; i < 1000; i++ {
			s = append(s, 1+float64(i)*0.009)
		}
		windows = append(windows, s)
	}
	calm := windowedPercentile(windows, 0.99, nil)
	for i := 900; i < 1000; i++ {
		windows[3][i] = 389
	}
	if got := windowedPercentile(windows, 0.99, nil); got != calm {
		t.Errorf("one stalled window moved the windowed p99 from %v to %v", calm, got)
	}
	windows = append(windows, nil)
	if got := windowedPercentile(windows, 0.99, nil); got != calm {
		t.Errorf("an empty window moved the windowed p99 from %v to %v", calm, got)
	}
}

// TestCalmWindows: the medians are over the sub-windows the host left
// alone, unless too few are left to take a median over.
func TestCalmWindows(t *testing.T) {
	stolen := make([]float64, 40)
	thr := make([]float64, 40)
	for k := range thr {
		thr[k] = 100
		if k >= 12 { // a neighbour takes half the machine for the rest of the run
			stolen[k], thr[k] = 0.5, 50
		}
	}
	thr[3] = math.NaN() // a window with no reading
	calm, share := calmWindows(stolen)
	if share != 0.3 || !calm[11] || calm[12] {
		t.Fatalf("calm share %v, calm[11] %v, calm[12] %v; want 0.3, true, false", share, calm[11], calm[12])
	}
	if got := medianWhere(thr, calm); got != 100 {
		t.Errorf("median over the calm windows = %v, want 100", got)
	}
	if got := medianWhere(thr, nil); got != 50 {
		t.Errorf("median over all windows = %v, want 50", got)
	}
	for k := 5; k < 12; k++ {
		stolen[k] = 0.5
	}
	if calm, share := calmWindows(stolen); share != 0.125 || !calm[39] {
		t.Errorf("5 calm windows of 40: share %v, calm[39] %v; want 0.125 and every window kept", share, calm[39])
	}
	if a, b := (hostCPU{busy: 100, stolen: 10}), (hostCPU{busy: 150, stolen: 20}); stolenShare(a, b) != 0.2 {
		t.Errorf("stolenShare = %v, want 0.2", stolenShare(a, b))
	}
}

func TestOpenLoopDueTimes(t *testing.T) {
	const start = int64(5_000_000)
	if got := tickDue(start, 0, tick); got != start {
		t.Errorf("tick 0 due at %d, want %d", got, start)
	}
	if got := tickDue(start, 1500, tick); got != start+1_500_000_000 {
		t.Errorf("tick 1500 due at %d, want start+1.5s", got)
	}
	if got := perTick(20000, tick); got != 20 {
		t.Errorf("20000 msgs/s = %d per 1 ms tick, want 20", got)
	}
	if got := perTick(500, tick); got != 1 {
		t.Errorf("a rate below one per tick = %d per tick, want 1", got)
	}
	win := int64(time.Second)
	for _, c := range []struct {
		t    int64
		want int
		ok   bool
	}{
		{start - 1, 0, false},
		{start, 0, true},
		{start + win - 1, 0, true},
		{start + win, 1, true},
		{start + 10*win - 1, 9, true},
		{start + 10*win, 0, false},
	} {
		if got, ok := windowIndex(c.t, start, win, 10); got != c.want || ok != c.ok {
			t.Errorf("windowIndex(%d) = %d, %v; want %d, %v", c.t, got, ok, c.want, c.ok)
		}
	}
	// A stamp survives the payload and a refused body goes back.
	pay := newPayloads(3, 64)
	b := pay.next(123456789)
	if due, ok := stampOf(b); !ok || due != 123456789 || len(b) != 64 {
		t.Errorf("stamp round trip: %d, %v, len %d", due, ok, len(b))
	}
	left := len(pay.arena)
	pay.next(1)
	pay.unget()
	if len(pay.arena) != left {
		t.Errorf("unget left %d bytes in the arena, want %d", len(pay.arena), left)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	vs := []float64{7, 1, 10, 4, 2, 9, 3, 8, 5, 6}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartile spread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_msgs_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 60, 140, 90, 110, 100}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"within bound", lower, steady, shift(steady, 1.05), "ok"},
		{"slower", lower, steady, shift(steady, 1.2), "REGRESSED"},
		{"faster", lower, steady, shift(steady, 0.8), "better"},
		{"less throughput", higher, steady, shift(steady, 0.8), "REGRESSED"},
		{"more throughput", higher, steady, shift(steady, 1.2), "better"},
		{"noise wider than the bound", lower, noisy, shift(noisy, 1.05), "unresolved"},
		{"noisy but every run worse", lower, noisy, shift(noisy, 3), "REGRESSED"},
		{"noisy but every run better", lower, noisy, shift(noisy, 0.3), "better"},
	} {
		if got, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestTracedRingJoinsGoroutines: closing a traced ring leaves no
// goroutine of the transport or of a timer callback behind.
func TestTracedRingJoinsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, network := range []string{"udp", "tcp"} {
		ring, _, err := buildRing(network, ringHooks{}, &recorder{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ring.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after closing traced rings", before, after)
	}
}

// fakeChildEnv turns this test binary into a stand-in for a workload
// subprocess, so runChild can be tested against each way one can end.
const fakeChildEnv = "EVS_BENCHMARK_FAKE_CHILD"

func TestMain(m *testing.M) {
	mode := os.Getenv(fakeChildEnv)
	if mode == "" {
		os.Exit(m.Run())
	}
	phasePipe = os.NewFile(3, "phase")
	announcePhase(phaseConstructing)
	announcePhase(phaseConstructed)
	switch {
	case mode == "dies-measuring":
		os.Exit(2)
	case mode == "dies-constructing-once" && restartsSoFar() == 0, mode == "dies-constructing-always":
		announcePhase(phaseConstructing)
		os.Exit(2)
	}
	fmt.Printf("restarts %.0f\n", restartsSoFar())
}

// TestRunChildRestarts: a subprocess that dies inside the daemon.New
// calls is started over and the restart counted; one that dies anywhere
// else is the run's failure, whatever its stack says.
func TestRunChildRestarts(t *testing.T) {
	for _, c := range []struct {
		mode     string
		restarts int
		fails    bool
		stdout   string
	}{
		{"completes", 0, false, "restarts 0\n"},
		{"dies-constructing-once", 1, false, "restarts 1\n"},
		{"dies-constructing-always", maxRestarts, true, ""},
		{"dies-measuring", 0, true, ""},
	} {
		t.Setenv(fakeChildEnv, c.mode)
		stdout, restarts, err := runChild(nil)
		if restarts != c.restarts || (err != nil) != c.fails || string(stdout) != c.stdout {
			t.Errorf("%s: stdout %q, %d restarts, err %v; want %q, %d restarts, failure %v", c.mode, stdout, restarts, err, c.stdout, c.restarts, c.fails)
		}
	}
}

// TestCompareCountsRestartsAndIncorrectRuns: -compare regresses on a run
// that was started over or was disturbed, even when every metric agrees.
func TestCompareCountsRestartsAndIncorrectRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, restarts int, correct bool) string {
		f := resultsFile{Seconds: 10}
		for _, w := range workloads {
			rec := runRecord{Workload: w.name, line: line{Correct: true, Attempted: 100, Metrics: map[string]reported{}}}
			for _, d := range endToEnd {
				rec.Metrics[d.Name] = reported{Value: 100, Unit: d.Unit}
			}
			f.Runs = append(f.Runs, rec)
		}
		f.Runs[2].Restarts, f.Runs[3].Correct = restarts, correct
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 0, true)
	for _, c := range []struct {
		name      string
		restarts  int
		correct   bool
		regressed bool
	}{
		{"same", 0, true, false},
		{"restarted", 1, true, true},
		{"disturbed", 0, false, true},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, write(c.name+".json", c.restarts, c.correct), "../BENCHMARK.json")
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, regressed, c.regressed, out.String())
		}
	}
}
