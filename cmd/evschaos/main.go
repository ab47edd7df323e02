// Command evschaos drives the chaos engine: it generates seeded
// adversarial fault schedules (crash/recover storms, flapping and one-way
// partitions, targeted message-class loss, latency bursts, stable-storage
// corruption), executes each against a simulated EVS cluster, and judges
// the execution with the specification checker. On a violation it
// delta-debugs the failing schedule down to a small deterministic
// reproducer and prints it, optionally saving it as JSON for -replay.
//
// Usage:
//
//	evschaos [-seeds N] [-seed S] [-procs P] [-duration D] [-settle D]
//	         [-parallel W] [-minimize] [-save FILE] [-replay FILE]
//	         [-stream] [-soak-seconds S] [-sends N] [-check-every N]
//	         [-oracle-every K] [-bound B] [-report FILE]
//	         [-cpuprofile FILE] [-memprofile FILE] [-v]
//
// Examples:
//
//	evschaos -seeds 50                 # seeds 1..50, report violations
//	evschaos -seeds 200 -parallel 8    # soak on 8 workers
//	evschaos -seed 86 -minimize        # one seed, shrink any failure
//	evschaos -replay repro.json        # re-execute a saved reproducer
//	evschaos -stream -soak-seconds 90  # inline-certified convergence soak
//
// Executions are deterministic per seed, so -parallel changes only the
// wall-clock time: per-seed results (and their printed order) are
// identical to a serial run.
//
// -stream switches to the streaming soak (see stream.go): histories are
// certified inline by the windowed checker instead of retained, each
// seed's verdict includes the self-stabilization convergence judgment,
// and the per-seed line reports the checker's peak retained window.
//
// The exit status is non-zero if any execution violated the
// specifications (or a replayed reproducer still does, or a streaming
// seed failed to converge).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 20, "number of seeds to run (1..N); ignored with -seed or -replay")
		seed     = flag.Int64("seed", 0, "run exactly this seed instead of a range")
		procs    = flag.Int("procs", 0, "cluster size (0 = seed-dependent default)")
		duration = flag.Duration("duration", 0, "fault-injection window (0 = default 1s)")
		settle   = flag.Duration("settle", 0, "post-heal quiet period (0 = default 2.5s)")
		parallel = flag.Int("parallel", 1, "worker pool size; results stay in seed order")
		minimize = flag.Bool("minimize", false, "delta-debug failing schedules to a minimal reproducer")
		maxRuns  = flag.Int("minimize-budget", 400, "maximum executions the minimizer may spend per failure")
		save     = flag.String("save", "", "write the (minimized) failing program as JSON to this file")
		replay   = flag.String("replay", "", "replay a saved program JSON instead of generating")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		verbose  = flag.Bool("v", false, "print every program before running it")

		stream      = flag.Bool("stream", false, "certify inline with the streaming checker and judge convergence")
		soakSeconds = flag.Int("soak-seconds", 0, "with -stream: run seeds serially until this wall-clock budget is spent")
		sends       = flag.Int("sends", 0, "client submissions per seed (0 = default 16)")
		healEvery   = flag.Duration("heal-every", 0, "insert a full heal boundary this often (bounds fault episodes, and with them checker memory, on long runs)")
		checkEvery  = flag.Int("check-every", 4096, "with -stream: incremental certification cadence in events")
		oracleEvery = flag.Int("oracle-every", 16, "with -stream: run the reference oracle on every k-th window")
		bound       = flag.Int("bound", 8, "with -stream: post-fault configuration changes allowed before the run must be legal")
		reportFile  = flag.String("report", "", "with -stream: write the convergence report to this file (written even on failure)")
	)
	flag.Parse()

	if *stream {
		if err := runStream(streamConfig{
			seeds: *seeds, seed: *seed, procs: *procs,
			duration: *duration, settle: *settle, sends: *sends,
			healEvery:   *healEvery,
			soakSeconds: *soakSeconds,
			checkEvery:  *checkEvery, oracleEvery: *oracleEvery, bound: *bound,
			report:  *reportFile,
			verbose: *verbose,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if err := run(config{
		seeds: *seeds, seed: *seed, procs: *procs,
		duration: *duration, settle: *settle,
		parallel: *parallel,
		minimize: *minimize, maxRuns: *maxRuns,
		save: *save, replay: *replay,
		cpuProfile: *cpuProf, memProfile: *memProf,
		verbose: *verbose,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type config struct {
	seeds      int
	seed       int64
	procs      int
	duration   time.Duration
	settle     time.Duration
	parallel   int
	minimize   bool
	maxRuns    int
	save       string
	replay     string
	cpuProfile string
	memProfile string
	verbose    bool
	// clock supplies elapsed time for the trailing summary line, in the
	// obs style (a monotonic duration since some epoch). main leaves it
	// nil, which anchors a wall clock at the start of the run; tests
	// inject a fixed clock so serial and parallel output compare byte
	// for byte, timing line included.
	clock func() time.Duration
}

// seedOutcome is one seed's complete result: the text a serial run would
// have printed, whether it failed, and the (possibly minimized) failing
// program for -save.
type seedOutcome struct {
	text   string
	failed bool
	report chaos.Program
}

// runSeed executes one seed and renders its report exactly as the
// original serial loop printed it. Generation, execution and minimization
// are all deterministic in the seed, so outcomes are independent of the
// worker that computes them.
func runSeed(s int64, cfg config, gen chaos.GenConfig) seedOutcome {
	var b strings.Builder
	p := chaos.Generate(s, gen)
	if cfg.verbose {
		fmt.Fprintln(&b, p)
	}
	res := chaos.Run(p)
	if len(res.Violations) == 0 {
		fmt.Fprintf(&b, "seed %-4d ok    (%d events, %d packets, %d submissions)\n",
			s, res.Events, res.Net.Delivered, res.Group.Submitted)
		return seedOutcome{text: b.String()}
	}
	fmt.Fprintf(&b, "seed %-4d FAIL  %d specification violation(s)\n", s, len(res.Violations))
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "    %s\n", v)
	}
	report := p
	if cfg.minimize {
		report = chaos.Minimize(p, chaos.MinimizeOptions{MaxRuns: cfg.maxRuns})
		fmt.Fprintf(&b, "minimized to %d events (%d faults):\n",
			len(report.Events), report.FaultCount())
		printMetricDeltas(&b, res.Metrics, chaos.Run(report).Metrics)
	}
	fmt.Fprintln(&b, report)
	return seedOutcome{text: b.String(), failed: true, report: report}
}

// deltaCounters are the protocol counters worth comparing between a full
// failing schedule and its minimized reproducer: together they show how
// much ordering, membership and recovery work the shrink preserved.
var deltaCounters = []string{
	"totem_token_rotations_total",
	"totem_msgs_delivered_total",
	"totem_retrans_served_total",
	"node_recovery_started_total",
	"node_recovery_finished_total",
	"node_recovery_aborted_total",
	"node_configs_regular_total",
	"node_configs_transitional_total",
	"net_packets_delivered_total",
	"net_packets_dropped_total",
}

// printMetricDeltas renders the full-run versus minimized-run counter
// comparison that accompanies a minimized reproducer.
func printMetricDeltas(b *strings.Builder, full, min obs.Snapshot) {
	fmt.Fprintf(b, "metric deltas (full run -> minimized):\n")
	for _, name := range deltaCounters {
		fv, mv := full.Counters[name], min.Counters[name]
		if fv == 0 && mv == 0 {
			continue
		}
		fmt.Fprintf(b, "    %-34s %10d -> %d\n", name, fv, mv)
	}
}

func run(cfg config) error {
	clock := cfg.clock
	if clock == nil {
		start := time.Now()
		clock = func() time.Duration { return time.Since(start) }
	}
	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return fmt.Errorf("evschaos: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("evschaos: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if cfg.memProfile != "" {
		defer func() {
			f, err := os.Create(cfg.memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "evschaos: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "evschaos: %v\n", err)
			}
		}()
	}

	if cfg.replay != "" {
		return replayFile(cfg)
	}

	first, last := int64(1), int64(cfg.seeds)
	if cfg.seed != 0 {
		first, last = cfg.seed, cfg.seed
	}
	if last < first {
		return fmt.Errorf("evschaos: no seeds to run (-seeds %d)", cfg.seeds)
	}
	ran := last - first + 1

	gen := chaos.GenConfig{Procs: cfg.procs, Duration: cfg.duration, Settle: cfg.settle}
	workers := cfg.parallel
	if workers < 1 {
		workers = 1
	}
	if int64(workers) > ran {
		workers = int(ran)
	}

	// A worker pool over seeds; each seed's outcome arrives on its own
	// buffered channel so the main loop prints (and saves) strictly in
	// seed order, matching a serial run byte for byte.
	outcomes := make([]chan seedOutcome, ran)
	for i := range outcomes {
		outcomes[i] = make(chan seedOutcome, 1)
	}
	jobs := make(chan int64)
	for w := 0; w < workers; w++ {
		go func() {
			for s := range jobs {
				outcomes[s-first] <- runSeed(s, cfg, gen)
			}
		}()
	}
	go func() {
		for s := first; s <= last; s++ {
			jobs <- s
		}
		close(jobs)
	}()

	failures := 0
	epoch := clock()
	for s := first; s <= last; s++ {
		out := <-outcomes[s-first]
		fmt.Print(out.text)
		if !out.failed {
			continue
		}
		failures++
		if cfg.save != "" {
			if err := saveProgram(out.report, cfg.save); err != nil {
				return err
			}
			fmt.Printf("saved reproducer to %s\n", cfg.save)
		}
	}
	fmt.Printf("%d seed(s), %d failure(s), %s\n", ran, failures, (clock() - epoch).Round(time.Millisecond))
	if failures > 0 {
		return fmt.Errorf("evschaos: %d of %d schedules violated the EVS specifications", failures, ran)
	}
	return nil
}

// replayFile re-executes a saved program twice, checking both the
// specifications and the determinism of the reproducer.
func replayFile(cfg config) error {
	b, err := os.ReadFile(cfg.replay)
	if err != nil {
		return fmt.Errorf("evschaos: %w", err)
	}
	p, err := chaos.DecodeJSON(b)
	if err != nil {
		return fmt.Errorf("evschaos: %s: %w", cfg.replay, err)
	}
	fmt.Println(p)
	res, same := chaos.Replay(p)
	if !same {
		return fmt.Errorf("evschaos: program is not deterministic across replays")
	}
	fmt.Printf("replayed twice, deterministic, %d violation(s)\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("    %s\n", v)
	}
	if len(res.Violations) > 0 {
		return fmt.Errorf("evschaos: replayed program violates the EVS specifications")
	}
	return nil
}

func saveProgram(p chaos.Program, path string) error {
	b, err := p.EncodeJSON()
	if err != nil {
		return fmt.Errorf("evschaos: encode program: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("evschaos: %w", err)
	}
	return nil
}
