// Streaming execution and convergence judgment.
//
// Run executes a program, retains the full history, and judges it post
// hoc — fine for bounded runs, impossible for soaks whose histories
// outgrow memory. RunStream is the inline alternative: the cluster drops
// its history (evs.Options.DiscardHistory) and every traced event feeds
// a spec.Stream that certifies the run incrementally over a pruned
// window, so memory stays bounded by protocol concurrency rather than
// run length. On sampled certification windows the stream invokes the
// seed reference checker (package refcheck) as a differential oracle;
// any streaming-vs-reference disagreement is itself a verdict failure.
//
// RunStream additionally judges *convergence*, the self-stabilization
// claim: after the last transient fault (a corrupting crash or a live
// perturbation), the execution must re-enter the legal-history set
// within a bounded number of configuration changes. Concretely, the
// verdict marks the global event index of the last corrupting fault,
// counts the distinct regular configurations installed after it, and
// derives a boundary: the event index of the Bound-th distinct
// post-fault install (or the last one, if fewer happen). The run
// converged iff
//
//  1. the cluster ends in a single operational regular configuration
//     containing every process (the heal tail guarantees the network
//     allows this),
//  2. the streaming checker and the reference oracle never disagreed,
//     and
//  3. every violation is anchored to events at or before the boundary —
//     damage attributable to the faulty prefix is expected and legal
//     under the specifications' conditional form; damage *after* the
//     system had its budget of configuration changes to stabilize is a
//     convergence failure.
package chaos

import (
	"fmt"

	evs "repro"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/spec/refcheck"
)

// StreamConfig tunes the inline checker and the convergence judgment.
// The zero value gets defaults.
type StreamConfig struct {
	// CheckEvery is the incremental certification cadence in events
	// (default spec.Stream's own default, 4096).
	CheckEvery int
	// OracleEvery runs the reference-checker oracle on every k-th
	// certification window (default 16; 0 keeps the default). The final
	// settled window is always oracle-checked.
	OracleEvery int
	// Bound is the number of distinct post-fault regular configuration
	// installs the system is allowed before it must be legal again
	// (default 8).
	Bound int
}

func (sc StreamConfig) withDefaults() StreamConfig {
	if sc.OracleEvery <= 0 {
		sc.OracleEvery = 16
	}
	if sc.Bound <= 0 {
		sc.Bound = 8
	}
	return sc
}

// StreamResult is the verdict of one streaming execution.
type StreamResult struct {
	// Violations are the specification breaches certified inline
	// (deduplicated across windows, anchored to global event indices).
	Violations []spec.Violation
	// Events is the total history length (counted, not retained).
	Events uint64
	// Stream reports the inline checker's window accounting, including
	// peak retained events/bytes — the soak's memory-boundedness claim.
	Stream spec.StreamStats
	// Disagreements lists streaming-vs-reference oracle mismatches;
	// empty on a healthy run.
	Disagreements []string

	// LastFault is the global event index when the last corrupting
	// fault (crash-with-corruption or live perturbation) executed; zero
	// when the program schedules none.
	LastFault uint64
	// Installs is the number of distinct regular configurations
	// installed after LastFault.
	Installs int
	// Boundary is the event index by which the execution must be legal
	// again (see the package comment on convergence).
	Boundary uint64
	// FinalConfigs is the number of distinct operational regular
	// configurations at the end of the run (1 on a converged run).
	FinalConfigs int
	// Converged reports the overall self-stabilization verdict.
	Converged bool

	// Net, Group and Faults are the activity counters of the run, as in
	// Result.
	Net    netsim.Stats
	Group  evs.GroupStats
	Faults FaultStats
	// Metrics is the cluster-wide observability snapshot.
	Metrics obs.Snapshot
}

// RunStream executes the program with the inline streaming checker and
// judges both specification conformance and convergence. The cluster
// retains no history: memory is bounded by the checker's pruned window.
func RunStream(p Program, sc StreamConfig) StreamResult {
	sc = sc.withDefaults()
	var res StreamResult

	oracle := func(window []model.Event, opts spec.Options, fast []spec.Violation) {
		ref := refcheck.CheckAll(window, opts)
		a, b := renderViolations(fast), renderViolations(ref)
		if d := firstDiff(a, b); d != "" {
			res.Disagreements = append(res.Disagreements, fmt.Sprintf(
				"oracle window %d (%d events, settled=%v): streaming found %d, reference %d: %s",
				res.Stream.OracleWindows+1, len(window), opts.Settled, len(a), len(b), d))
		}
	}

	f := build(p, true)
	g := f.g
	// The inline checker consumes the trace as it happens; events is the
	// global event index streaming violations anchor to.
	stream := spec.NewStream(spec.StreamOptions{
		CheckEvery:  sc.CheckEvery,
		OracleEvery: sc.OracleEvery,
		Oracle:      oracle,
	})
	var events uint64
	g.OnTrace = func(e model.Event) {
		events++
		stream.Add(e)
	}
	if BugHook != nil {
		BugHook(g)
	}
	ids := g.IDs()

	// Install tracking for the convergence judgment: every regular
	// install is recorded with the event index it happened at, and the
	// post-fault distinct ones are extracted after the run.
	type install struct {
		at uint64
		id model.ConfigID
	}
	var installs []install
	g.OnConfig = func(q model.ProcessID, cc node.ConfigChange) {
		if cc.Config.ID.IsRegular() {
			installs = append(installs, install{at: events, id: cc.Config.ID})
		}
	}

	apply(f, p)

	// Fault markers: one callback per corrupting event, scheduled after
	// apply so the scheduler's same-time FIFO order fires it right after
	// the fault itself — it reads the event count the fault landed at.
	// A fault that no-ops (perturbing a down process, wrapping a zero
	// counter) still marks: the boundary only moves later, which keeps
	// the judgment conservative.
	valid := make(map[model.ProcessID]bool, len(ids))
	for _, id := range ids {
		valid[id] = true
	}
	var lastFault uint64
	for _, e := range p.Events {
		corrupting := (e.Op == OpCrash && e.Mode != CorruptNone) || e.Op == OpPerturb
		if !corrupting || !valid[e.Proc] {
			continue
		}
		at := e.At
		if at < 0 {
			at = 0
		}
		if at > p.Horizon {
			at = p.Horizon
		}
		g.At(at, func() { lastFault = events })
	}

	g.Run(p.Horizon + p.Settle)

	res.Violations = stream.Finish(spec.Options{Settled: true})
	res.Events = events
	res.Stream = stream.Stats()
	res.Net = g.Network().Stats()
	res.Group = g.Stats()
	res.Faults = f.stats
	res.Metrics = g.Metrics().Total
	res.LastFault = lastFault

	// Distinct post-fault regular installs, in install order.
	seen := make(map[model.ConfigID]bool)
	var distinct []uint64
	for _, in := range installs {
		if in.at <= lastFault || seen[in.id] {
			continue
		}
		seen[in.id] = true
		distinct = append(distinct, in.at)
	}
	res.Installs = len(distinct)
	res.Boundary = res.Events
	if len(distinct) >= sc.Bound {
		res.Boundary = distinct[sc.Bound-1]
	} else if len(distinct) > 0 {
		res.Boundary = distinct[len(distinct)-1]
	}

	ops := g.Operational()
	res.FinalConfigs = len(ops)
	covered := false
	if len(ops) == 1 {
		for _, members := range ops {
			covered = members.Size() == len(ids)
		}
	}
	res.Converged = covered && len(res.Disagreements) == 0 && anchoredBy(res.Violations, res.Boundary)
	return res
}

// anchoredBy reports whether every violation is anchored to events at or
// before the boundary. A violation with no event anchors cannot be
// attributed to the faulty prefix and therefore fails the test.
func anchoredBy(vs []spec.Violation, boundary uint64) bool {
	for _, v := range vs {
		if len(v.Events) == 0 {
			return false
		}
		for _, e := range v.Events {
			if uint64(e) > boundary {
				return false
			}
		}
	}
	return true
}

// firstDiff returns a description of the first element where the two
// sorted string slices differ, or "" when they are equal.
func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("streaming %q vs reference %q", a[i], b[i])
		}
	}
	switch {
	case len(a) > len(b):
		return fmt.Sprintf("streaming extra %q", a[len(b)])
	case len(b) > len(a):
		return fmt.Sprintf("reference extra %q", b[len(a)])
	}
	return ""
}

// String renders the verdict as a one-line report entry.
func (r StreamResult) String() string {
	verdict := "CONVERGED"
	if !r.Converged {
		verdict = "NOT CONVERGED"
	}
	return fmt.Sprintf(
		"%s events=%d violations=%d disagreements=%d last_fault=%d installs=%d boundary=%d final_configs=%d peak_window=%d events (%d bytes)",
		verdict, r.Events, len(r.Violations), len(r.Disagreements),
		r.LastFault, r.Installs, r.Boundary, r.FinalConfigs,
		r.Stream.PeakRetained, r.Stream.PeakBytes)
}
