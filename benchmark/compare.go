package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// runRecord is one subprocess run as stored in a results file. Restarts
// is how many times runChild started it over before it completed.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Restarts int    `json:"restarts"`
	line
}

// resultsFile is what -all writes and -compare reads.
type resultsFile struct {
	Go      string      `json:"go"`
	NumCPU  int         `json:"nproc"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// benchSpec is BENCHMARK.json as far as the benchmark reads it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// lastLine parses the contract's result line off a run's standard output.
func lastLine(stdout []byte) (line, error) {
	var l line
	rows := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(rows[len(rows)-1], &l); err != nil {
		return l, fmt.Errorf("no result line: %w", err)
	}
	return l, nil
}

// allRuns is how many untraced runs of a workload -all makes, each with
// another seed: the number the contract's spread is taken over.
const allRuns = 10

// runAll runs every workload (or only the named one) allRuns times with
// tracing off and once with it on, each run in its own subprocess of this
// executable, writes the results file and prints each end-to-end metric's
// median and quartile spread. It reports whether every run was correct.
func runAll(path string, only string, seed int64, seconds float64) (bool, error) {
	file := resultsFile{Go: runtime.Version(), NumCPU: runtime.NumCPU(), Seconds: seconds}
	ok := true
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		for k := 0; k <= allRuns; k++ {
			trace := 0
			if k == allRuns {
				trace = 1
			}
			s := seed + int64(k)
			stdout, restarts, err := runChild([]string{"--workload", w.name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)})
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			l, err := lastLine(stdout)
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			ok = ok && l.Correct
			file.Runs = append(file.Runs, runRecord{Workload: w.name, Seed: s, Trace: trace, Restarts: restarts, line: l})
			fmt.Printf("%-20s seed %-4d trace %d correct %-5v attempted %-9d failed %-6d restarts %d\n", w.name, s, trace, l.Correct, l.Attempted, l.Failed, restarts)
		}
		for _, d := range endToEnd {
			vs := file.values(w.name, d.Name)
			fmt.Printf("  %-20s median %14.4f %-4s quartile spread %6.2f%% of median (bound %.0f%%)\n",
				d.Name, median(append([]float64(nil), vs...)), d.Unit, 100*quartileSpread(vs), 100*d.Bound)
		}
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false, err
	}
	return ok, os.WriteFile(path, b, 0o644)
}

// values returns one end-to-end metric's readings on one workload.
func (f *resultsFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// health sums a workload's accounting over its runs: how many were
// incorrect (a violation, or a disturbed run), how many times runs were
// started over, and the failed share.
func (f *resultsFile) health(workload string) (incorrect, restarts int, failedShare float64) {
	var attempted, failed int64
	for _, r := range f.Runs {
		if r.Workload == workload {
			if !r.Correct {
				incorrect++
			}
			restarts += r.Restarts
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return incorrect, restarts, ratio(float64(failed), float64(attempted))
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict applies one metric's bound to two sets of runs of it. worse is
// how much b's median is worse than a's as a share of a's. A pairing
// whose run-to-run spread exceeds the bound is unresolved — not
// unchanged — unless every run of one side beats every run of the other.
func verdict(d metricDef, a, b []float64) (v string, worse, spread float64) {
	ma, mb := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
	worse = ratio(mb-ma, ma)
	lo, hi := minMax(a)
	blo, bhi := minMax(b)
	bAllWorse, bAllBetter := blo > hi, bhi < lo
	if d.Better == "higher" {
		worse = -worse
		bAllWorse, bAllBetter = bAllBetter, bAllWorse
	}
	spread = quartileSpread(a)
	if s := quartileSpread(b); s > spread {
		spread = s
	}
	switch {
	case spread > d.Bound && !bAllWorse && !bAllBetter:
		v = "unresolved"
	case worse > d.Bound:
		v = "REGRESSED"
	case worse < -d.Bound || bAllBetter:
		v = "better"
	default:
		v = "ok"
	}
	return v, worse, spread
}

func minMax(vs []float64) (lo, hi float64) {
	for i, v := range vs {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}

// compareFiles prints, per workload, one row per end-to-end metric with
// b's median as a ratio of a's, the base, the spread and the verdict,
// then the per-layer readings side by side. It reports whether anything
// regressed: a metric beyond its bound, or more incorrect runs, more
// restarts or a higher failed share than the base.
func compareFiles(w io.Writer, pathA, pathB, specPath string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "base a = %s (go %s, nproc %d, %g s)\n     b = %s (go %s, nproc %d, %g s)\n",
		pathA, a.Go, a.NumCPU, a.Seconds, pathB, b.Go, b.NumCPU, b.Seconds)
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		for _, d := range spec.EndToEnd {
			va, vb := a.values(wl.Name, d.Name), b.values(wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-20s missing (a: %d runs, b: %d runs)\n", d.Name, len(va), len(vb))
				regressed = true
				continue
			}
			v, worse, spread := verdict(d, va, vb)
			ma, mb := median(append([]float64(nil), va...)), median(append([]float64(nil), vb...))
			fmt.Fprintf(w, "  %-20s b/a %6.3f  base %14.4f %-4s b %14.4f  worse by %+6.1f%% (bound %4.1f%%)  spread %5.1f%%  runs %d/%d  %s\n",
				d.Name, ratio(mb, ma), ma, d.Unit, mb, 100*worse, 100*d.Bound, 100*spread, len(va), len(vb), v)
			if v == "REGRESSED" {
				regressed = true
			}
		}
		ia, ra, fa := a.health(wl.Name)
		ib, rb, fb := b.health(wl.Name)
		state := "ok"
		if ib > ia || rb > ra || fb > fa {
			state = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(w, "  %-20s incorrect runs %d -> %d, restarts after a crash in daemon.New %d -> %d, failed_share %.6f -> %.6f  %s\n", "correctness", ia, ib, ra, rb, fa, fb, state)
		var rows []string
		for _, d := range spec.PerLayer {
			la, lb := a.layer(wl.Name, d.Name), b.layer(wl.Name, d.Name)
			if la != 0 || lb != 0 {
				rows = append(rows, fmt.Sprintf("%s %.4g -> %.4g %s", d.Name, la, lb, d.Unit))
			}
		}
		if len(rows) > 0 {
			fmt.Fprintf(w, "  per-layer (one traced run each, no bound): %s\n", strings.Join(rows, "; "))
		}
	}
	return regressed, nil
}

// layer returns a per-layer metric from a workload's traced run.
func (f *resultsFile) layer(workload, metric string) float64 {
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 1 {
			return r.Metrics[metric].Value
		}
	}
	return 0
}
