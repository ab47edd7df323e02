// Command evsbench regenerates the paper's figures and the virtual-time
// protocol characterisation series (F1-F5, F6, F7, T2, T3, P1) as a text
// report. Each section names the experiment from DESIGN.md; EXPERIMENTS.md
// records the expected shapes. Every figure it prints is in virtual time;
// wall-clock throughput, latency and per-layer costs are measured by
// benchmark/ (bash benchmark/run.sh --workload NAME), not here.
//
// Usage:
//
//	evsbench [-seed N] [-quick]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	evs "repro"
	"repro/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	quick := flag.Bool("quick", false, "smaller sweeps")
	flag.Parse()
	run(os.Stdout, *seed, *quick)
}

func run(w io.Writer, seed int64, quick bool) {
	fmt.Fprintln(w, "extended virtual synchrony — experiment report")
	fmt.Fprintln(w, "================================================")
	fmt.Fprintln(w)

	// F1-F5: specification conformance.
	fmt.Fprintln(w, "F1-F5  specifications 1-7 (figures 1-5): checker conformance")
	fmt.Fprintln(w, "-------------------------------------------------------------")
	rows := experiments.Figures1to5(seed)
	fmt.Fprint(w, experiments.FormatCheckerRows(rows))
	failed := 0
	for _, r := range rows {
		if !r.Pass() {
			failed++
		}
	}
	fmt.Fprintf(w, "=> %d/%d rows pass\n\n", len(rows)-failed, len(rows))

	// F6: the worked example.
	fmt.Fprintln(w, "F6     figure 6: partition and merge of {p,q,r} with {s,t}")
	fmt.Fprintln(w, "-------------------------------------------------------------")
	f6 := experiments.Figure6(seed)
	ids := make([]evs.ProcessID, 0, len(f6.ConfigSeqs))
	for id := range f6.ConfigSeqs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "  %s: ", id)
		for i, c := range f6.ConfigSeqs[id] {
			if i > 0 {
				fmt.Fprint(w, " -> ")
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "=> q,r deliver transitional {q,r} then regular {q,r,s,t}: %v\n", f6.QRTransitional)
	fmt.Fprintf(w, "=> p isolated via singleton transitional configuration:   %v\n", f6.PIsolated)
	fmt.Fprintf(w, "=> specification violations: %d\n\n", len(f6.Violations))

	// F7: virtual synchrony over EVS.
	fmt.Fprintln(w, "F7     figure 7: virtual synchrony filtered from EVS")
	fmt.Fprintln(w, "-------------------------------------------------------------")
	f7 := experiments.Figure7(seed)
	fmt.Fprintf(w, "  EVS deliveries in minority component: %d (continued operation)\n", f7.EVSDeliveriesMinority)
	fmt.Fprintf(w, "  VS  deliveries in minority component: %d (blocked by the filter)\n", f7.VSDeliveriesMinority)
	fmt.Fprintf(w, "=> virtual synchrony violations (C1-C3, L1-L5): %d\n", len(f7.VSViolations))
	fmt.Fprintf(w, "=> EVS specification violations:                %d\n\n", len(f7.EVSViolations))

	// T2: recovery cost.
	fmt.Fprintln(w, "T2     recovery latency vs outstanding backlog")
	fmt.Fprintln(w, "-------------------------------------------------------------")
	backlogs := []int{0, 50, 200, 500, 1000}
	if quick {
		backlogs = []int{0, 50, 200}
	}
	fmt.Fprintf(w, "%8s %14s %14s\n", "backlog", "recovery ms", "rebroadcasts")
	for _, b := range backlogs {
		r := experiments.RecoveryMedian(b, 5)
		fmt.Fprintf(w, "%8d %14.2f %14d\n", r.Backlog, r.RecoveryMs, r.Rebroadcasts)
	}
	fmt.Fprintln(w)

	// T3: availability.
	fmt.Fprintln(w, "T3     availability during partition: EVS vs VS (5 processes)")
	fmt.Fprintln(w, "-------------------------------------------------------------")
	fmt.Fprintf(w, "%12s %12s %12s\n", "split", "EVS active", "VS active")
	for _, s := range []int{4, 3, 2} {
		r := experiments.Availability(s, seed)
		fmt.Fprintf(w, "%7d|%1d   %11.0f%% %11.0f%%\n", r.Split, 5-r.Split, 100*r.EVSActive, 100*r.VSActive)
	}
	fmt.Fprintln(w)

	// P1: primary history.
	fmt.Fprintln(w, "P1     primary component history under churn")
	fmt.Fprintln(w, "-------------------------------------------------------------")
	fmt.Fprintf(w, "%8s %12s %12s %12s\n", "seed", "reconfigs", "primaries", "violations")
	seeds := []int64{seed, seed + 1, seed + 2, seed + 3}
	if quick {
		seeds = seeds[:2]
	}
	for _, s := range seeds {
		r := experiments.PrimaryHistory(s)
		fmt.Fprintf(w, "%8d %12d %12d %12d\n", r.Seed, r.Reconfigs, r.Primaries, r.Violations)
	}
}
