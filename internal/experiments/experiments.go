// Package experiments regenerates the paper's figures and the protocol
// characterisation series. The ICDCS 1994 paper has no quantitative
// evaluation tables — its figures are the formal specifications (Figures
// 1-5), a worked partition/merge scenario (Figure 6) and the layered
// virtual-synchrony architecture (Figure 7) — so reproduction means
// executable conformance: protocol executions that pass the specification
// checker, deliberately violating traces that the checker flags, the exact
// Figure 6 scenario, the Figure 7 layering validated against Birman's
// model, plus recovery cost against backlog (T2), the paper's availability
// claim (T3: all components make progress, versus the primary component
// only under virtual synchrony) and the primary-component history (P1).
// Every figure here is in virtual time; throughput and latency are
// measured on the wall clock by benchmark/ (see its README).
//
// Both cmd/evsbench and the root package's testing.B benchmarks call into
// this package, so the printed report and the benchmarks stay in agreement.
package experiments

import (
	"fmt"
	"slices"
	"time"

	evs "repro"
	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/spec"
)

// Figures 1-5's conforming run and Figure 6 are scenarios of the chaos
// corpus. The corpus is compiled into package chaos, so a load error is a
// broken build and stops the program at start.
var conformingRun, figure6Run chaos.Program

func init() {
	var err error
	if conformingRun, err = chaos.Scenario("conforming"); err == nil {
		figure6Run, err = chaos.Scenario("figure6")
	}
	if err != nil {
		panic(err)
	}
}

// CheckerRow is one conformance row of the Figure 1-5 reproduction.
type CheckerRow struct {
	Spec string // which specification clause
	Case string // "conforming" or the violation scenario
	// WantViolation is whether the checker must flag the trace.
	WantViolation bool
	// Flagged is whether it did.
	Flagged bool
}

// Pass reports whether the checker behaved as required.
func (r CheckerRow) Pass() bool { return r.WantViolation == r.Flagged }

// Figures1to5 exercises the specification checker in both directions: a
// conforming protocol execution per specification cluster, and a
// deliberately violating hand-built trace per clause (the scenarios drawn
// in Figures 1-5).
func Figures1to5(seed int64) []CheckerRow {
	var rows []CheckerRow

	// Conforming execution: the corpus's churny run, checked per cluster.
	p := conformingRun
	p.Seed = seed
	flagged := map[string]bool{}
	for _, v := range chaos.Run(p).Violations {
		flagged[v.Spec] = true
	}
	for _, cl := range []string{"1.3", "1.4", "2.1", "2.2", "3", "4", "5", "6.1/6.2", "6.3", "7.1", "7.2"} {
		rows = append(rows, CheckerRow{
			Spec:          cl,
			Case:          "conforming protocol execution",
			WantViolation: false,
			Flagged:       flagged[cl],
		})
	}

	// Violating traces, one per clause (Figure 1-5 scenarios).
	rows = append(rows, violatingTraces()...)
	return rows
}

// violatingTraces builds one minimal violating trace per specification
// clause and reports whether the checker flags it.
func violatingTraces() []CheckerRow {
	cfg1 := model.RegularID(1, "p")
	cfg2 := model.RegularID(2, "p")
	pqr := model.NewProcessSet("p", "q", "r")
	pq := model.NewProcessSet("p", "q")
	m1 := model.MessageID{Sender: "p", SenderSeq: 1}
	m2 := model.MessageID{Sender: "q", SenderSeq: 1}
	conf := func(p model.ProcessID, c model.ConfigID, mem model.ProcessSet) model.Event {
		return model.Event{Type: model.EventDeliverConf, Proc: p, Config: c, Members: mem}
	}
	send := func(p model.ProcessID, m model.MessageID, c model.ConfigID, svc model.Service) model.Event {
		return model.Event{Type: model.EventSend, Proc: p, Msg: m, Config: c, Service: svc}
	}
	deliver := func(p model.ProcessID, m model.MessageID, c model.ConfigID, svc model.Service) model.Event {
		return model.Event{Type: model.EventDeliver, Proc: p, Msg: m, Config: c, Members: pqr, Service: svc}
	}
	base := []model.Event{conf("p", cfg1, pqr), conf("q", cfg1, pqr), conf("r", cfg1, pqr)}

	cases := []struct {
		spec   string
		name   string
		events []model.Event
	}{
		{"1.3", "delivery without a send (Figure 1)",
			append(append([]model.Event{}, base...), deliver("q", m1, cfg1, model.Agreed))},
		{"1.4", "same message sent twice (Figure 1)",
			append(append([]model.Event{}, base...),
				send("p", m1, cfg1, model.Agreed), send("p", m1, cfg1, model.Agreed))},
		{"2.2", "event outside the current configuration (Figure 2)",
			append(append([]model.Event{}, base...), send("p", m1, cfg2, model.Agreed))},
		{"3", "sender moved on without self-delivery (Figure 3)",
			append(append([]model.Event{}, base...),
				send("p", m1, cfg1, model.Agreed), conf("p", cfg2, pq))},
		{"4", "joint successors, different delivery sets (Figure 4)",
			append(append([]model.Event{}, base...),
				send("p", m1, cfg1, model.Agreed), deliver("p", m1, cfg1, model.Agreed),
				conf("p", cfg2, pq), conf("q", cfg2, pq))},
		{"5", "causal predecessor missing (Figure 5)",
			append(append([]model.Event{}, base...),
				send("p", m1, cfg1, model.Agreed), deliver("q", m1, cfg1, model.Agreed),
				send("q", m2, cfg1, model.Agreed), deliver("r", m2, cfg1, model.Agreed))},
		{"6.1/6.2", "conflicting delivery orders",
			append(append([]model.Event{}, base...),
				send("p", m1, cfg1, model.Agreed), send("q", m2, cfg1, model.Agreed),
				deliver("p", m1, cfg1, model.Agreed), deliver("p", m2, cfg1, model.Agreed),
				deliver("q", m2, cfg1, model.Agreed), deliver("q", m1, cfg1, model.Agreed))},
		{"6.3", "delivery prefix broken",
			append(append([]model.Event{}, base...),
				send("p", m1, cfg1, model.Agreed), send("q", m2, cfg1, model.Agreed),
				deliver("p", m1, cfg1, model.Agreed), deliver("p", m2, cfg1, model.Agreed),
				deliver("r", m2, cfg1, model.Agreed))},
		{"7.1", "safe delivery without counterpart",
			append(append([]model.Event{}, base...),
				send("p", m1, cfg1, model.Safe),
				deliver("p", m1, cfg1, model.Safe), deliver("q", m1, cfg1, model.Safe),
				conf("r", model.RegularID(5, "r"), model.NewProcessSet("r")))},
		{"7.2", "safe delivery in uninstalled configuration",
			[]model.Event{
				conf("p", cfg1, pqr), conf("q", cfg1, pqr),
				send("p", m1, cfg1, model.Safe), deliver("p", m1, cfg1, model.Safe),
			}},
	}
	var rows []CheckerRow
	for _, c := range cases {
		vs := spec.NewChecker(c.events, spec.Options{Settled: true}).CheckAll()
		hit := false
		for _, v := range vs {
			if v.Spec == c.spec {
				hit = true
			}
		}
		rows = append(rows, CheckerRow{
			Spec:          c.spec,
			Case:          c.name,
			WantViolation: true,
			Flagged:       hit,
		})
	}
	return rows
}

// Fig6Result captures the Figure 6 reproduction. Figure 6's processes p,
// q, r, s and t are the corpus scenario's p01-p05.
type Fig6Result struct {
	// ConfigSeqs is the configuration sequence delivered at each process.
	ConfigSeqs map[evs.ProcessID][]evs.Configuration
	// QRTransitional reports whether q and r delivered the two
	// configuration changes of Figure 6: transitional {q,r} then
	// regular {q,r,s,t}.
	QRTransitional bool
	// PIsolated reports whether p finished in the singleton regular
	// configuration via a singleton transitional configuration.
	PIsolated bool
	// STOutside reports whether s and t installed no transitional
	// configuration whose predecessor is a regular {p,q,r}, which they
	// were never in.
	STOutside bool
	// Violations from the specification checker (empty on success).
	Violations []evs.Violation
}

// Figure6 reproduces the paper's worked example: a regular configuration
// {p,q,r} partitions; p becomes isolated while q and r merge with the
// separate component {s,t}. It replays the corpus scenario up to the heal
// tail, which would merge p back.
func Figure6(seed int64) Fig6Result {
	prog := figure6Run
	prog.Seed, prog.Settle = seed, 0
	events, run := chaos.Trace(prog)

	res := Fig6Result{ConfigSeqs: make(map[evs.ProcessID][]evs.Configuration), Violations: run.Violations}
	members := make(map[model.ConfigID]evs.ProcessSet)
	for _, e := range events {
		if e.Type == model.EventDeliverConf {
			res.ConfigSeqs[e.Proc] = append(res.ConfigSeqs[e.Proc], evs.Configuration{ID: e.Config, Members: e.Members})
			members[e.Config] = e.Members
		}
	}
	ids := []evs.ProcessID{"p01", "p02", "p03", "p04", "p05"}
	p, q, r, s, t := ids[0], ids[1], ids[2], ids[3], ids[4]
	pqr := evs.NewProcessSet(p, q, r)
	qr := func(id evs.ProcessID) bool {
		seq := res.ConfigSeqs[id]
		if len(seq) < 3 {
			return false
		}
		last, tr, old := seq[len(seq)-1], seq[len(seq)-2], seq[len(seq)-3]
		return old.ID.IsRegular() && old.Members.Equal(pqr) &&
			tr.ID.IsTransitional() && tr.Members.Equal(evs.NewProcessSet(q, r)) &&
			tr.ID.Prev() == old.ID &&
			last.ID.IsRegular() && last.Members.Equal(evs.NewProcessSet(q, r, s, t))
	}
	res.QRTransitional = qr(q) && qr(r)
	if pseq := res.ConfigSeqs[p]; len(pseq) >= 2 {
		last, tr := pseq[len(pseq)-1], pseq[len(pseq)-2]
		res.PIsolated = last.ID.IsRegular() && last.Members.Equal(evs.NewProcessSet(p)) &&
			tr.ID.IsTransitional() && tr.Members.Equal(evs.NewProcessSet(p))
	}
	res.STOutside = true
	for _, c := range slices.Concat(res.ConfigSeqs[s], res.ConfigSeqs[t]) {
		if c.ID.IsTransitional() && members[c.ID.Prev()].Equal(pqr) {
			res.STOutside = false
		}
	}
	return res
}

// Fig7Result captures the Figure 7 reproduction: virtual synchrony layered
// over extended virtual synchrony.
type Fig7Result struct {
	// EVSDeliveriesMinority counts EVS-layer deliveries in the minority
	// component after the partition (nonzero: EVS keeps going).
	EVSDeliveriesMinority int
	// VSDeliveriesMinority counts VS-layer deliveries there (zero: the
	// filter blocks non-primary components).
	VSDeliveriesMinority int
	// VSViolations from Birman's model checker (empty on success).
	VSViolations []evs.VSViolation
	// EVSViolations from the EVS checker (empty on success).
	EVSViolations []evs.Violation
}

// Figure7 runs the layered stack through a partition with traffic on both
// sides and validates the filter output against the virtual synchrony
// model.
func Figure7(seed int64) Fig7Result {
	g := evs.NewGroup(evs.Options{NumProcesses: 5, Seed: seed, EnableVS: true})
	ids := g.IDs()
	g.Partition(300*time.Millisecond, ids[:3], ids[3:])
	for i := 0; i < 6; i++ {
		g.Send(time.Duration(700+i*15)*time.Millisecond, ids[0], []byte("maj"), evs.Safe)
		g.Send(time.Duration(700+i*15)*time.Millisecond, ids[3], []byte("min"), evs.Safe)
	}
	g.Merge(1100 * time.Millisecond)
	g.Run(2 * time.Second)

	var res Fig7Result
	for _, id := range ids[3:] {
		res.EVSDeliveriesMinority += len(g.Deliveries(id))
		for _, e := range g.VSEvents(id) {
			if e.Deliver != nil && string(e.Deliver.Payload) == "min" {
				res.VSDeliveriesMinority++
			}
		}
	}
	res.VSViolations = g.CheckVS(true)
	res.EVSViolations = g.Check(true)
	return res
}

// Format helpers for the text report.

// FormatCheckerRows renders the Figure 1-5 table.
func FormatCheckerRows(rows []CheckerRow) string {
	out := fmt.Sprintf("%-8s %-45s %-10s %s\n", "spec", "case", "expected", "result")
	for _, r := range rows {
		want := "clean"
		if r.WantViolation {
			want = "violation"
		}
		verdict := "PASS"
		if !r.Pass() {
			verdict = "FAIL"
		}
		out += fmt.Sprintf("%-8s %-45s %-10s %s\n", r.Spec, r.Case, want, verdict)
	}
	return out
}
