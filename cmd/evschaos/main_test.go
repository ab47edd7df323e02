package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRunSmallSeedRange(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos executions are slow")
	}
	err := run(config{seeds: 2, maxRuns: 50})
	if err != nil {
		t.Fatalf("seeds 1..2 should satisfy the specifications: %v", err)
	}
}

// captureRun executes run with stdout redirected to a pipe and returns
// everything it printed.
func captureRun(t *testing.T, cfg config) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(cfg)
	os.Stdout = old
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), runErr
}

// TestRunParallelMatchesSerial: the worker pool must not change the
// output at all. With an injected fixed clock the timing summary is
// deterministic too, so the comparison is full byte identity — no line
// is exempt.
func TestRunParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos executions are slow")
	}
	cfg := config{
		seeds: 4, maxRuns: 50, duration: 300 * time.Millisecond,
		clock: func() time.Duration { return 0 },
	}
	serialOut, serialErr := captureRun(t, cfg)
	cfg.parallel = 4
	parallelOut, parallelErr := captureRun(t, cfg)
	if (serialErr == nil) != (parallelErr == nil) {
		t.Fatalf("exit status diverged: serial=%v parallel=%v", serialErr, parallelErr)
	}
	if serialOut != parallelOut {
		t.Fatalf("parallel output diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialOut, parallelOut)
	}
}

// TestPrintMetricDeltas: every name in the delta table must exist in the
// obs catalog (a typo would silently render zeros forever), and the
// rendering must show changed counters while skipping all-zero rows.
func TestPrintMetricDeltas(t *testing.T) {
	known := make(map[string]bool)
	for _, n := range obs.CounterNames() {
		known[n] = true
	}
	for _, n := range deltaCounters {
		if !known[n] {
			t.Errorf("deltaCounters entry %q is not in the obs catalog", n)
		}
	}

	full := obs.Snapshot{Counters: map[string]uint64{
		"totem_token_rotations_total": 5000,
		"net_packets_dropped_total":   0,
	}}
	min := obs.Snapshot{Counters: map[string]uint64{
		"totem_token_rotations_total": 40,
		"net_packets_dropped_total":   0,
	}}
	var b strings.Builder
	printMetricDeltas(&b, full, min)
	out := b.String()
	if !strings.Contains(out, "totem_token_rotations_total") ||
		!strings.Contains(out, "5000 -> 40") {
		t.Errorf("delta table missing the changed counter:\n%s", out)
	}
	if strings.Contains(out, "net_packets_dropped_total") {
		t.Errorf("delta table should skip all-zero counters:\n%s", out)
	}
}

func TestRunRejectsEmptySeedRange(t *testing.T) {
	if err := run(config{seeds: 0}); err == nil {
		t.Fatal("an empty seed range must be an error")
	}
}

func TestSaveAndReplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos executions are slow")
	}
	// A passing seed saves nothing; exercise save/replay through the
	// file helpers directly with a short single-seed run.
	path := filepath.Join(t.TempDir(), "prog.json")
	if err := run(config{seed: 3, seeds: 1, maxRuns: 50,
		duration: 300 * time.Millisecond, save: path}); err != nil {
		t.Fatalf("seed 3: %v", err)
	}
	// No violation means no file was written; replay must then fail
	// loudly rather than succeed vacuously.
	if _, err := os.Stat(path); err == nil {
		t.Fatal("passing run must not save a reproducer")
	}
	if err := run(config{replay: path}); err == nil ||
		!strings.Contains(err.Error(), "evschaos") {
		t.Fatalf("replaying a missing file should fail with context, got %v", err)
	}
}

// TestReplayCorpusScenarioTraced: -replay runs a corpus scenario, and -v
// prints its formal-model trace, one event per line.
func TestReplayCorpusScenarioTraced(t *testing.T) {
	out, err := captureRun(t, config{replay: "../../internal/chaos/testdata/figure6.json", verbose: true})
	if err != nil {
		t.Fatalf("figure6 should replay clean: %v\n%s", err, out)
	}
	for _, want := range []string{
		"formal-model trace:\n    deliver_conf_",
		"    deliver_conf_p02(trans(",
		"replayed twice, deterministic: CONVERGED",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestSoakRunsSeedsUntilBudget: -soak-seconds runs seeds serially from
// -seed until the budget is spent, and -report holds everything printed.
// The injected clock advances one second per reading, so a two-second
// budget covers exactly two seeds.
func TestSoakRunsSeedsUntilBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos executions are slow")
	}
	var now time.Duration
	path := filepath.Join(t.TempDir(), "report.txt")
	out, err := captureRun(t, config{
		seed: 2, soakSeconds: 2, duration: 300 * time.Millisecond, report: path,
		clock: func() time.Duration { now += time.Second; return now - time.Second },
	})
	if err != nil {
		t.Fatalf("seeds 2..3 should pass: %v\n%s", err, out)
	}
	for _, want := range []string{"seed 2 ", "seed 3 ", "2 seed(s), 0 failure(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "seed 4 ") {
		t.Errorf("the soak ran past its budget:\n%s", out)
	}
	report, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !strings.HasPrefix(out, string(report)) {
		t.Errorf("report is not what was printed:\n--- report ---\n%s\n--- printed ---\n%s", report, out)
	}
}
