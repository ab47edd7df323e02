// Package chaos is a randomized adversarial fault injector for the EVS
// stack. The paper's correctness claims (Specifications 1-7, the recovery
// algorithm of Section 3) are quantified over *all* network schedules;
// hand-scripted scenarios exercise only the gentle ones. This package
// generates seeded adversarial schedules — crash/recover storms, flapping
// and asymmetric (one-way) partitions, targeted loss of specific wire
// message classes, latency/reorder bursts, and stable-storage faults at
// crash time — executes them against the deterministic simulated cluster
// (evs.Group), and judges every execution with the specification checker,
// inline as the events happen, and for convergence after the last
// transient fault (Run). When an execution fails, the failing schedule is
// minimized by delta debugging (Minimize) into a small deterministic
// reproducer. The group schedules the paper's own faults (partitions,
// merges, crashes and recoveries with stable storage intact); this package
// owns the ones beyond that model (see faults.go).
//
// A Program is pure data (JSON-serialisable), so any failure found by the
// generator can be saved, replayed bit-for-bit, shrunk, and committed as a
// regression scenario.
package chaos

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	evs "repro"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/spec/refcheck"
)

// Op enumerates schedule event operations.
type Op string

const (
	// OpSend submits a client message at Proc (Payload, Service).
	OpSend Op = "send"
	// OpCrash fails Proc; Mode/N optionally corrupt its stable storage.
	OpCrash Op = "crash"
	// OpRecover restarts Proc with its (possibly corrupted) storage.
	OpRecover Op = "recover"
	// OpPartition splits the network into Groups (symmetric).
	OpPartition Op = "partition"
	// OpMerge reunites all components.
	OpMerge Op = "merge"
	// OpOneWay cuts links From → To directionally.
	OpOneWay Op = "oneway"
	// OpHealLinks removes every directional link rule.
	OpHealLinks Op = "heal_links"
	// OpDropKinds starts dropping wire message classes in Kinds sent by
	// Proc ("" = every sender).
	OpDropKinds Op = "drop_kinds"
	// OpClearDrops removes every message-class loss rule.
	OpClearDrops Op = "clear_drops"
	// OpDelaySpike adds Delay fixed latency plus Jitter reorder spread
	// to every link (heal with OpHealLinks).
	OpDelaySpike Op = "delay_spike"
	// OpPerturb corrupts the in-memory state of the live process Proc
	// between token visits (Mode selects the transient fault, N sizes
	// it) — the self-stabilization fault model, as opposed to the
	// crash-time storage corruption of OpCrash.
	OpPerturb Op = "perturb"
)

// Event is one scheduled fault or traffic action.
type Event struct {
	At time.Duration `json:"at"`
	Op Op            `json:"op"`

	Proc    model.ProcessID     `json:"proc,omitempty"`
	Groups  [][]model.ProcessID `json:"groups,omitempty"`
	From    []model.ProcessID   `json:"from,omitempty"`
	To      []model.ProcessID   `json:"to,omitempty"`
	Kinds   []string            `json:"kinds,omitempty"`
	Mode    Corruption          `json:"mode,omitempty"`
	N       int                 `json:"n,omitempty"`
	Payload string              `json:"payload,omitempty"`
	Service model.Service       `json:"service,omitempty"`
	Delay   time.Duration       `json:"delay,omitempty"`
	Jitter  time.Duration       `json:"jitter,omitempty"`
}

// String renders the event as one line of a runnable scenario.
func (e Event) String() string {
	at := fmt.Sprintf("%8s", e.At)
	switch e.Op {
	case OpSend:
		return fmt.Sprintf("%s send    %s %q %s", at, e.Proc, e.Payload, e.Service)
	case OpCrash:
		if e.Mode != CorruptNone {
			return fmt.Sprintf("%s crash   %s corrupt=%s n=%d", at, e.Proc, e.Mode, e.N)
		}
		return fmt.Sprintf("%s crash   %s", at, e.Proc)
	case OpRecover:
		return fmt.Sprintf("%s recover %s", at, e.Proc)
	case OpPartition:
		var gs []string
		for _, g := range e.Groups {
			gs = append(gs, fmt.Sprintf("%v", g))
		}
		return fmt.Sprintf("%s partition %s", at, strings.Join(gs, " | "))
	case OpMerge:
		return fmt.Sprintf("%s merge", at)
	case OpOneWay:
		return fmt.Sprintf("%s oneway  %v -/-> %v", at, e.From, e.To)
	case OpHealLinks:
		return fmt.Sprintf("%s heal_links", at)
	case OpDropKinds:
		from := string(e.Proc)
		if from == "" {
			from = "*"
		}
		return fmt.Sprintf("%s drop    kinds=%v from=%s", at, e.Kinds, from)
	case OpClearDrops:
		return fmt.Sprintf("%s clear_drops", at)
	case OpDelaySpike:
		return fmt.Sprintf("%s delay_spike +%s jitter=%s", at, e.Delay, e.Jitter)
	case OpPerturb:
		return fmt.Sprintf("%s perturb %s mode=%s n=%d", at, e.Proc, e.Mode, e.N)
	default:
		return fmt.Sprintf("%s %s?", at, e.Op)
	}
}

// Program is a complete deterministic chaos schedule. Executing the same
// program always produces the same history: the cluster, network and
// generator all derive their randomness from Seed, and every action fires
// at a fixed virtual time.
type Program struct {
	// Seed drives the simulated network (and names the program).
	Seed int64 `json:"seed"`
	// Procs is the cluster size.
	Procs int `json:"procs"`
	// Horizon is when fault injection stops: the executor heals every
	// fault and recovers every process at this time.
	Horizon time.Duration `json:"horizon"`
	// Settle is the quiet period after Horizon before the history is
	// judged with Settled specification checks.
	Settle time.Duration `json:"settle"`
	// Events are the scheduled fault and traffic actions.
	Events []Event `json:"events"`
}

// FaultCount returns the number of fault events (everything but traffic).
func (p Program) FaultCount() int {
	n := 0
	for _, e := range p.Events {
		if e.Op != OpSend {
			n++
		}
	}
	return n
}

// String renders the program as a runnable scenario listing.
func (p Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# chaos program: seed=%d procs=%d horizon=%s settle=%s\n",
		p.Seed, p.Procs, p.Horizon, p.Settle)
	fmt.Fprintf(&b, "# replay: evschaos -replay <this file as JSON>  (or Run in internal/chaos)\n")
	for _, e := range p.Events {
		fmt.Fprintf(&b, "%s\n", e)
	}
	fmt.Fprintf(&b, "%8s heal_links + clear_drops + merge + recover all (executor tail)\n", p.Horizon)
	return b.String()
}

// MarshalJSON/Unmarshal round-trip the program through encoding/json; the
// default struct codecs are sufficient, these named helpers just keep the
// CLI honest about the format.

// EncodeJSON serialises the program.
func (p Program) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// DecodeJSON parses a program.
func DecodeJSON(b []byte) (Program, error) {
	var p Program
	if err := json.Unmarshal(b, &p); err != nil {
		return Program{}, fmt.Errorf("chaos: decode program: %w", err)
	}
	return p, nil
}

// Result is the outcome of executing one program: the specification
// verdict certified inline, the convergence verdict (converge.go) and the
// activity counters of the run.
type Result struct {
	// Violations are the specification breaches found, deduplicated
	// across certification windows and anchored to global event indices;
	// empty when the execution conforms.
	Violations []spec.Violation
	// Disagreements lists the mismatches between the inline checker and
	// the reference oracle on the windows it sampled; empty on a healthy
	// run.
	Disagreements []string
	// Events is the history length, counted rather than retained (a cheap
	// execution fingerprint).
	Events int
	// Stream is the inline checker's window accounting, including the
	// peak retained window: the memory-boundedness evidence of a soak.
	Stream spec.StreamStats
	// LastFault is the event index at which the last corrupting fault
	// (a crash with corruption or a live perturbation) executed; zero when
	// the program schedules none. Installs is the number of distinct
	// regular configurations installed after it, and Boundary the event
	// index by which the execution must be legal again.
	LastFault, Installs, Boundary int
	// FinalConfigs is the number of distinct operational regular
	// configurations at the end of the run (1 on a converged run).
	FinalConfigs int
	// Converged reports the self-stabilization verdict.
	Converged bool
	// Net, Group and Faults are the activity counters of the run: the
	// medium's, the group's submissions, and the faults that materialized.
	Net    netsim.Stats
	Group  evs.GroupStats
	Faults FaultStats
	// Metrics is the cluster-wide observability snapshot (the cross-scope
	// total), letting reports quantify what protocol work a schedule
	// caused. It is informational and deliberately excluded from
	// determinism comparison (sameResult).
	Metrics obs.Snapshot
}

// Failed reports whether the execution fails: it violated a
// specification, the inline checker and the reference oracle disagreed,
// or the run did not converge.
func (r Result) Failed() bool {
	return len(r.Violations) > 0 || len(r.Disagreements) > 0 || !r.Converged
}

// String renders the verdict as one report line.
func (r Result) String() string {
	verdict := "CONVERGED"
	if !r.Converged {
		verdict = "NOT CONVERGED"
	}
	return fmt.Sprintf(
		"%s events=%d packets=%d submissions=%d violations=%d disagreements=%d last_fault=%d installs=%d boundary=%d final_configs=%d peak_window=%d events (%d bytes)",
		verdict, r.Events, r.Net.Delivered, r.Group.Submitted, len(r.Violations), len(r.Disagreements),
		r.LastFault, r.Installs, r.Boundary, r.FinalConfigs,
		r.Stream.PeakRetained, r.Stream.PeakBytes)
}

// bugHook, when non-nil, is invoked with every newly built group before
// its schedule runs, after the inline checker is attached to OnTrace. The
// package's tests set it to plant a deliberate protocol bug and verify
// that the engine detects and minimizes it.
var bugHook func(g *evs.Group)

// The inline checker's schedule: it certifies its window every checkEvery
// events (spec.Stream's default) and runs the reference oracle on every
// oracleEvery-th certification and on the final settled one.
const (
	checkEvery  = 4096
	oracleEvery = 16
)

// cadence is a certification schedule: checkEvery and oracleEvery by
// default, smaller in tests that need many windows.
type cadence struct{ checkEvery, oracleEvery int }

// Run executes the program and judges it. The cluster retains no history:
// every traced event feeds a spec.Stream, which certifies the run inline
// over a pruned window with the reference checker (package refcheck) as a
// sampled differential oracle, so memory is bounded by protocol
// concurrency rather than run length. The run is also judged for
// convergence (converge.go).
func Run(p Program) Result {
	return run(p, cadence{checkEvery, oracleEvery}, nil)
}

// run is Run on the certification schedule c. tap, when non-nil, sees
// every traced event the checker sees, in order: tests take the history
// from it.
func run(p Program, c cadence, tap func(model.Event)) Result {
	var res Result
	var stream *spec.Stream
	oracle := func(window []model.Event, opts spec.Options, fast []spec.Violation) {
		ref := refcheck.CheckAll(window, opts)
		a, b := renderViolations(fast), renderViolations(ref)
		if d := firstDiff(a, b); d != "" {
			res.Disagreements = append(res.Disagreements, fmt.Sprintf(
				"oracle window %d (%d events, settled=%v): streaming found %d, reference %d: %s",
				stream.Stats().OracleWindows, len(window), opts.Settled, len(a), len(b), d))
		}
	}
	stream = spec.NewStream(spec.StreamOptions{
		CheckEvery:  c.checkEvery,
		OracleEvery: c.oracleEvery,
		Oracle:      oracle,
	})

	f := build(p)
	g := f.g
	// events is the global event index violations, installs and fault
	// markers are anchored to.
	var events int
	g.OnTrace = func(e model.Event) {
		events++
		stream.Add(e)
		if tap != nil {
			tap(e)
		}
	}
	if bugHook != nil {
		bugHook(g)
	}
	var installs []install
	g.OnConfig = func(_ model.ProcessID, cc node.ConfigChange) {
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
	for _, e := range p.Events {
		corrupting := (e.Op == OpCrash && e.Mode != CorruptNone) || e.Op == OpPerturb
		if corrupting && g.Proc(e.Proc) != nil {
			g.At(clampAt(e.At, p.Horizon), func() { res.LastFault = events })
		}
	}

	g.Run(p.Horizon + p.Settle)

	res.Violations = stream.Finish(spec.Options{Settled: true})
	res.Events = events
	res.Stream = stream.Stats()
	res.Net = g.Network().Stats()
	res.Group = g.Stats()
	res.Faults = f.stats
	res.Metrics = g.Metrics().Total
	converge(&res, installs, g.Operational(), len(g.IDs()))
	return res
}

// build constructs the group for a program; it retains no history.
func build(p Program) *injector {
	procs := p.Procs
	if procs <= 0 {
		procs = 4
	}
	return &injector{g: evs.NewGroup(evs.Options{NumProcesses: procs, Seed: p.Seed, DiscardHistory: true})}
}

// clampAt clamps an event time into [0, horizon], so a subset produced by
// the minimizer always settles.
func clampAt(at, horizon time.Duration) time.Duration {
	return min(max(at, 0), horizon)
}

// apply schedules every event, at its clamped time, plus the heal tail.
func apply(f *injector, p Program) {
	g := f.g
	ids := g.IDs()
	valid := make(map[model.ProcessID]bool, len(ids))
	for _, id := range ids {
		valid[id] = true
	}
	for _, e := range p.Events {
		e := e
		at := clampAt(e.At, p.Horizon)
		switch e.Op {
		case OpSend:
			if valid[e.Proc] {
				g.Send(at, e.Proc, []byte(e.Payload), e.Service)
			}
		case OpCrash:
			if valid[e.Proc] {
				f.crashCorrupt(at, e.Proc, e.Mode, e.N)
			}
		case OpRecover:
			if valid[e.Proc] {
				g.Recover(at, e.Proc)
			}
		case OpPartition:
			g.Partition(at, e.Groups...)
		case OpMerge:
			g.Merge(at)
		case OpOneWay:
			f.oneWay(at, e.From, e.To)
		case OpHealLinks:
			f.healLinks(at)
		case OpDropKinds:
			f.dropKinds(at, e.Proc, netsim.Wildcard, e.Kinds...)
		case OpClearDrops:
			f.clearKindDrops(at)
		case OpDelaySpike:
			f.delaySpike(at, e.Delay, e.Jitter)
		case OpPerturb:
			if valid[e.Proc] {
				f.perturb(at, e.Proc, e.Mode, e.N)
			}
		}
	}
	// Heal tail: whatever subset of events ran, the execution ends with
	// every fault lifted and every process up, so Settled checks apply.
	f.healLinks(p.Horizon)
	f.clearKindDrops(p.Horizon)
	g.Merge(p.Horizon)
	for _, id := range ids {
		g.Recover(p.Horizon, id)
	}
}

// Replay returns an independent second execution of the program together
// with whether it matched the first bit-for-bit (verdicts, history length,
// checker accounting and activity counters), which guards reproducers
// against hidden nondeterminism.
func Replay(p Program) (Result, bool) {
	a := Run(p)
	b := Run(p)
	return b, sameResult(a, b)
}

// sameResult compares two results for deterministic equality.
func sameResult(a, b Result) bool {
	if a.Events != b.Events || a.Stream != b.Stream || a.Net != b.Net || a.Group != b.Group || a.Faults != b.Faults {
		return false
	}
	if a.LastFault != b.LastFault || a.Installs != b.Installs || a.Boundary != b.Boundary ||
		a.FinalConfigs != b.FinalConfigs || a.Converged != b.Converged {
		return false
	}
	return slices.Equal(renderViolations(a.Violations), renderViolations(b.Violations)) &&
		slices.Equal(a.Disagreements, b.Disagreements)
}

// renderViolations renders and sorts violations for stable comparison.
func renderViolations(vs []spec.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	sort.Strings(out)
	return out
}
