// Command benchmark is the repository's one wall-clock benchmark: five
// named workloads, each run in its own process, every metric printed by
// name with its unit, what was delivered checked for correctness, and —
// in a separate traced pass — the cost attributed to the program's own
// modules by timing calls into their public functions. See README.md.
//
//	bash benchmark/run.sh --workload udp4_sat_64B --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -all benchmark/out/a.json
//	bash benchmark/run.sh -compare benchmark/out/a.json benchmark/out/b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// workloads maps the normative names to their runners; why is the one
// line BENCHMARK.json carries.
var workloads = []struct {
	name string
	why  string
	run  func(seed int64, seconds float64, traced bool, outDir string) (*result, error)
}{
	{"udp4_sat_64B",
		"4 daemons, loopback UDP, no injected delay, closed loop, Agreed, 64 B: the saturating path, where per-datagram syscalls, wire encode/decode and batch fill do most of the work",
		func(seed int64, s float64, t bool, dir string) (*result, error) {
			return runSteadyWorkload(udp4Sat, seed, s, t, dir)
		}},
	{"tcp4_rate_1KB_safe",
		"4 daemons, loopback TCP mesh, open loop 20000 msgs/s, Safe, 1 KB: below saturation, so the readout is latency; framing, per-peer queues and payload copies outweigh per-message cost",
		func(seed int64, s float64, t bool, dir string) (*result, error) {
			return runSteadyWorkload(tcp4Rt, seed, s, t, dir)
		}},
	{"udp4_kill",
		"trials of 4 UDP daemons at 10000 msgs/s open loop with one closed mid-run, trace certified: membership and EVS recovery do the work; latency_p99_ms is the outage as requests due in it see it",
		func(seed int64, s float64, t bool, _ string) (*result, error) { return runKillWorkload(seed, s, t) }},
	{"sim8_sat_64B",
		"8 simulated procs (netsim 50-300 us delay), T1's saturating Safe 64 B load, no history: only node, totem, stable and the scheduler run, so a transport change must show nothing; latency is virtual ms",
		func(seed int64, s float64, t bool, _ string) (*result, error) { return runSimSat(seed, s, t) }},
	{"sim8_churn",
		"8 simulated procs, 4000 msgs/s, seeded partition/merge/crash/recover episodes, Check(true): the paper's own subject through the join/merge path, exactly repeatable; latency is virtual ms",
		func(seed int64, s float64, t bool, _ string) (*result, error) { return runSimChurn(seed, s, t) }},
}

// runSeconds is BENCHMARK.json's run_seconds: the measured span the
// sub-window count and the simulator sizes are chosen for.
const runSeconds = 10

// printSpec writes BENCHMARK.json from the declarations above and in
// metrics.go; the self-tests hold the checked-in file to it.
func printSpec(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds, EndToEnd: endToEnd}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// runWorkload runs one workload in this process.
func runWorkload(name string, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	for _, w := range workloads {
		if w.name == name {
			r, err := w.run(seed, seconds, traced, outDir)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			r.finish()
			if n := restartsSoFar(); n > 0 {
				r.note("this run was started over %.0f time(s) because the program crashed inside daemon.New (sizing finding 4)", n)
			}
			r.note("go %s, nproc %d, GOMAXPROCS %d, seed %d, %.3g s", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, seconds)
			return r, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// traceDir is benchmark/out under the repository root, whether the command
// runs from the root (run.sh) or from benchmark/ (go run ., go test): where
// the traced pass writes trace-<workload>.json.
func traceDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (one of the names in BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "fixes simulator schedules, fault choices and payload bytes")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured span")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and the per-layer metrics")
		all      = flag.Bool("all", false, "-all results.json: run every workload (or only -workload) ten times, each run in its own subprocess, and write the results file")
		compare  = flag.Bool("compare", false, "-compare a.json b.json: apply BENCHMARK.json's bounds to two results files")
		genSpec  = flag.Bool("print-spec", false, "print BENCHMARK.json as the declarations in this package give it")
	)
	flag.Parse()
	switch {
	case *genSpec:
		if err := printSpec(os.Stdout); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json")
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *all:
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-all takes the results file to write, after every flag"))
		}
		ok, err := runAll(flag.Arg(0), *workload, *seed, *seconds)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case os.Getenv(childEnv) == "":
		// Each workload runs in a subprocess of its own.
		stdout, _, err := runChild(os.Args[1:])
		os.Stdout.Write(stdout)
		if err != nil {
			fatal(err)
		}
	default:
		phasePipe = os.NewFile(3, "phase")
		r, err := runWorkload(*workload, *seed, *seconds, *trace != 0, traceDir())
		if err != nil {
			fatal(err)
		}
		if err := r.emit(os.Stdout, *trace != 0); err != nil {
			fatal(err)
		}
	}
}

const (
	// childEnv marks a workload subprocess; its value is how many times
	// the run has been started over already.
	childEnv    = "EVS_BENCHMARK_CHILD"
	maxRestarts = 3
	// The subprocess writes one of these to phasePipe as it enters and
	// leaves the loop of daemon.New calls that builds a ring.
	phaseConstructing = 'c'
	phaseConstructed  = 'd'
)

// phasePipe is the subprocess's end of the pipe its parent follows the
// ring builds on; nil when the workload runs in-process (the self-tests).
var phasePipe *os.File

func announcePhase(phase byte) {
	if phasePipe != nil {
		phasePipe.Write([]byte{phase})
	}
}

// restartsSoFar is how many times the parent has started this run over.
func restartsSoFar() float64 {
	n, _ := strconv.Atoi(os.Getenv(childEnv))
	return float64(n)
}

// runChild runs one workload in a subprocess of this executable and
// returns its standard output and how many times the run was started
// over. The one failure it starts a run over for is the program's known
// set-up race: daemon.New hands its transport a handler that reads the
// node before daemon.New has stored it, so a message from a peer that is
// already running can arrive in between and the process dies of a nil
// dereference (about 1 ring build in 1000; README.md, sizing finding 4).
// That can only happen while daemon.New calls are under way, so a
// subprocess that dies after it announced phaseConstructing and before it
// announced phaseConstructed is started over, at most maxRestarts times,
// and every such restart is counted: the run that completes reports it as
// daemon.new_crash_restarts and -all stores it in the results file, where
// -compare treats an increase as a regression. A subprocess that dies at
// any other moment — ring formation, warm-up, the measured span, the
// drain — is the run's failure.
func runChild(args []string) (stdout []byte, restarts int, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	for {
		pr, pw, err := os.Pipe()
		if err != nil {
			return nil, restarts, err
		}
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", childEnv, restarts))
		cmd.Stderr = os.Stderr
		cmd.ExtraFiles = []*os.File{pw} // the subprocess's descriptor 3
		var out bytes.Buffer
		cmd.Stdout = &out
		err = cmd.Start()
		pw.Close()
		if err != nil {
			pr.Close()
			return nil, restarts, err
		}
		phases, _ := io.ReadAll(pr) // until the subprocess has exited
		pr.Close()
		err = cmd.Wait()
		if err == nil {
			return out.Bytes(), restarts, nil
		}
		inConstructors := len(phases) > 0 && phases[len(phases)-1] == phaseConstructing
		if !inConstructors || restarts == maxRestarts {
			return out.Bytes(), restarts, fmt.Errorf("workload subprocess: %w", err)
		}
		restarts++
		fmt.Fprintf(os.Stderr, "benchmark: the program crashed inside daemon.New while a ring was being constructed (see README.md, sizing finding 4); starting the run over, restart %d of at most %d\n", restarts, maxRestarts)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
