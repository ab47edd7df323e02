// Command evschaos drives the chaos engine: it generates seeded
// adversarial fault schedules (crash/recover storms, flapping and one-way
// partitions, targeted message-class loss, latency bursts, stable-storage
// corruption), executes each against a simulated EVS cluster, and judges
// the execution with chaos.Run: the specification checker certifies it
// inline, with the reference checker as a sampled oracle, and the run must
// converge after its last transient fault. A seed fails on any violation,
// any oracle disagreement, or no convergence. A failing schedule is
// printed, optionally delta-debugged down to a small deterministic
// reproducer, and optionally saved as JSON for -replay.
//
// Usage:
//
//	evschaos [-seeds N] [-seed S] [-soak-seconds S] [-procs P]
//	         [-duration D] [-settle D] [-sends N] [-heal-every D]
//	         [-parallel W] [-minimize] [-minimize-budget N] [-save FILE]
//	         [-replay FILE] [-report FILE] [-cpuprofile FILE]
//	         [-memprofile FILE] [-v]
//
// Examples:
//
//	evschaos -seeds 50                 # seeds 1..50
//	evschaos -seeds 200 -parallel 8    # the same on 8 workers
//	evschaos -seed 86 -minimize        # one seed, shrink any failure
//	evschaos -replay repro.json        # re-execute a saved reproducer
//	evschaos -replay internal/chaos/testdata/figure6.json -v
//	                                   # replay a corpus scenario, traced
//	evschaos -soak-seconds 90 -report CONVERGENCE_report.txt
//	                                   # seeds from 1 until 90 s are spent
//
// Each seed prints one line: its verdict, the run's events, packets and
// submissions, its violation and disagreement counts, the convergence
// fields (last_fault, installs, boundary, final_configs) and the inline
// checker's peak retained window. Violation and disagreement lines
// follow it. Executions are deterministic per seed, so -parallel changes
// only the wall-clock time: per-seed results (and their printed order)
// are identical to a serial run. -soak-seconds runs seeds serially, from
// 1 (or -seed) until the wall-clock budget is spent, and at least one
// always runs. -report writes everything printed to a file, even when
// seeds fail.
//
// -replay re-executes one saved program; with -v it also prints the
// formal-model trace, one event per line. The scenario corpus
// (internal/chaos/testdata) replays the same way.
//
// The exit status is non-zero if any seed failed (or a replayed
// reproducer still fails).
package main

import (
	"flag"
	"fmt"
	"io"
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
		seeds       = flag.Int("seeds", 20, "number of seeds to run (1..N); ignored with -seed, -soak-seconds or -replay")
		seed        = flag.Int64("seed", 0, "run exactly this seed instead of a range (with -soak-seconds: start here)")
		soakSeconds = flag.Int("soak-seconds", 0, "run seeds serially until this wall-clock budget is spent")
		procs       = flag.Int("procs", 0, "cluster size (0 = seed-dependent default)")
		duration    = flag.Duration("duration", 0, "fault-injection window (0 = default 1s)")
		settle      = flag.Duration("settle", 0, "post-heal quiet period (0 = default 2.5s)")
		sends       = flag.Int("sends", 0, "client submissions per seed (0 = default 16)")
		healEvery   = flag.Duration("heal-every", 0, "insert a full heal boundary this often (bounds fault episodes, and with them checker memory, on long runs)")
		parallel    = flag.Int("parallel", 1, "worker pool size; results stay in seed order")
		minimize    = flag.Bool("minimize", false, "delta-debug failing schedules to a minimal reproducer")
		maxRuns     = flag.Int("minimize-budget", 400, "maximum executions the minimizer may spend per failure")
		save        = flag.String("save", "", "write the (minimized) failing program as JSON to this file")
		replay      = flag.String("replay", "", "replay a saved program JSON instead of generating")
		reportFile  = flag.String("report", "", "also write the report to this file (written even on failure)")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file at exit")
		verbose     = flag.Bool("v", false, "print every program before running it (with -replay, also its formal-model trace)")
	)
	flag.Parse()

	if err := run(config{
		seeds: *seeds, seed: *seed, soakSeconds: *soakSeconds,
		procs: *procs, duration: *duration, settle: *settle,
		sends: *sends, healEvery: *healEvery,
		parallel: *parallel,
		minimize: *minimize, maxRuns: *maxRuns,
		save: *save, replay: *replay, report: *reportFile,
		cpuProfile: *cpuProf, memProfile: *memProf,
		verbose: *verbose,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type config struct {
	seeds       int
	seed        int64
	soakSeconds int
	procs       int
	duration    time.Duration
	settle      time.Duration
	sends       int
	healEvery   time.Duration
	parallel    int
	minimize    bool
	maxRuns     int
	save        string
	replay      string
	report      string
	cpuProfile  string
	memProfile  string
	verbose     bool
	// clock supplies elapsed time for the trailing summary line and the
	// -soak-seconds budget, in the obs style (a monotonic duration since
	// some epoch). main leaves it nil, which anchors a wall clock at the
	// start of the run; tests inject a fixed clock so serial and parallel
	// output compare byte for byte, timing line included.
	clock func() time.Duration
}

// seedOutcome is one seed's complete result: the text a serial run would
// have printed, its verdict, and the (possibly minimized) failing program
// for -save.
type seedOutcome struct {
	text   string
	res    chaos.Result
	report chaos.Program
}

// runSeed executes one seed and renders its report. Generation, execution
// and minimization are all deterministic in the seed, so outcomes are
// independent of the worker that computes them.
func runSeed(s int64, cfg config, gen chaos.GenConfig) seedOutcome {
	var b strings.Builder
	p := chaos.Generate(s, gen)
	if cfg.verbose {
		fmt.Fprintln(&b, p)
	}
	res := chaos.Run(p)
	verdict := "ok  "
	if res.Failed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "seed %-4d %s  %s\n", s, verdict, res)
	printFindings(&b, res)
	if !res.Failed() {
		return seedOutcome{text: b.String(), res: res}
	}
	report := p
	if cfg.minimize {
		report = chaos.Minimize(p, chaos.MinimizeOptions{MaxRuns: cfg.maxRuns})
		fmt.Fprintf(&b, "minimized to %d events (%d faults):\n",
			len(report.Events), report.FaultCount())
		printMetricDeltas(&b, res.Metrics, chaos.Run(report).Metrics)
	}
	fmt.Fprintln(&b, report)
	return seedOutcome{text: b.String(), res: res, report: report}
}

// printFindings renders a result's violations and oracle disagreements,
// one per line.
func printFindings(w io.Writer, res chaos.Result) {
	for _, v := range res.Violations {
		fmt.Fprintf(w, "    violation: %s\n", v)
	}
	for _, d := range res.Disagreements {
		fmt.Fprintf(w, "    disagreement: %s\n", d)
	}
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
	budget := time.Duration(cfg.soakSeconds) * time.Second
	if budget == 0 && last < first {
		return fmt.Errorf("evschaos: no seeds to run (-seeds %d)", cfg.seeds)
	}
	gen := chaos.GenConfig{
		Procs: cfg.procs, Duration: cfg.duration, Settle: cfg.settle,
		Sends: cfg.sends, HealEvery: cfg.healEvery,
	}

	var (
		report                strings.Builder
		ran, failures         int
		notConverged, faulted int
		events                int
		certified             uint64
		peakEvents            int
		peakBytes             uint64
		epoch                 = clock()
	)
	emit := func(text string) {
		fmt.Print(text)
		report.WriteString(text)
	}
	take := func(out seedOutcome) error {
		emit(out.text)
		res := out.res
		ran++
		events += res.Events
		certified += res.Stream.Certified
		peakEvents = max(peakEvents, res.Stream.PeakRetained)
		peakBytes = max(peakBytes, res.Stream.PeakBytes)
		if res.LastFault > 0 {
			faulted++
		}
		if !res.Converged {
			notConverged++
		}
		if !res.Failed() {
			return nil
		}
		failures++
		if cfg.save == "" {
			return nil
		}
		if err := saveProgram(out.report, cfg.save); err != nil {
			return err
		}
		emit(fmt.Sprintf("saved reproducer to %s\n", cfg.save))
		return nil
	}

	var err error
	if budget > 0 {
		// Open-ended and serial, so the seeds a budget covers do not
		// depend on scheduling; at least one seed runs.
		for s := first; err == nil; s++ {
			err = take(runSeed(s, cfg, gen))
			if clock()-epoch >= budget {
				break
			}
		}
	} else {
		err = runPool(first, last, cfg, gen, take)
	}
	if err != nil {
		return err
	}
	emit(fmt.Sprintf("%d seed(s), %d failure(s), %d not converged, %d with faults, %d events (%d certified inline), peak window %d events / %d bytes, %s\n",
		ran, failures, notConverged, faulted, events, certified, peakEvents, peakBytes,
		(clock() - epoch).Round(time.Millisecond)))
	if cfg.report != "" {
		if err := os.WriteFile(cfg.report, []byte(report.String()), 0o644); err != nil {
			return fmt.Errorf("evschaos: write report: %w", err)
		}
		fmt.Printf("wrote report to %s\n", cfg.report)
	}
	if failures > 0 {
		return fmt.Errorf("evschaos: %d of %d seeds failed (violation, oracle disagreement or no convergence)", failures, ran)
	}
	return nil
}

// runPool runs seeds first..last on a worker pool and hands each outcome
// to take strictly in seed order, so the output matches a serial run byte
// for byte.
func runPool(first, last int64, cfg config, gen chaos.GenConfig, take func(seedOutcome) error) error {
	n := last - first + 1
	workers := int(min(max(int64(cfg.parallel), 1), n))
	// Each seed's outcome arrives on its own buffered channel, so no
	// worker ever waits for the printer.
	outcomes := make([]chan seedOutcome, n)
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
	for s := first; s <= last; s++ {
		if err := take(<-outcomes[s-first]); err != nil {
			return err
		}
	}
	return nil
}

// replayFile re-executes a saved program twice, checking both its verdict
// and the determinism of the reproducer. With verbose set it first prints
// the program's formal-model trace.
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
	if cfg.verbose {
		events, _ := chaos.Trace(p)
		fmt.Println("formal-model trace:")
		for _, e := range events {
			fmt.Printf("    %s\n", e)
		}
	}
	res, same := chaos.Replay(p)
	if !same {
		return fmt.Errorf("evschaos: program is not deterministic across replays")
	}
	fmt.Printf("replayed twice, deterministic: %s\n", res)
	printFindings(os.Stdout, res)
	if res.Failed() {
		return fmt.Errorf("evschaos: replayed program fails (violation, oracle disagreement or no convergence)")
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
