// Benchmarks regenerating the paper's figures and the protocol
// characterisation series (see DESIGN.md §4 and EXPERIMENTS.md). Each
// benchmark runs the corresponding experiment from internal/experiments and
// reports domain metrics via b.ReportMetric alongside the usual wall-clock
// cost of simulating it. Throughput and latency are benchmark/'s job.
package evs_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
)

// BenchmarkFig1to5SpecChecker runs the Figures 1-5 conformance suite: a
// churny protocol execution checked against every specification plus one
// deliberately violating trace per clause. The reported metric is the
// fraction of conformance rows that behave as required (must be 1.0).
func BenchmarkFig1to5SpecChecker(b *testing.B) {
	pass, total := 0, 0
	for i := 0; i < b.N; i++ {
		rows := experiments.Figures1to5(int64(i + 1))
		for _, r := range rows {
			total++
			if r.Pass() {
				pass++
			}
		}
	}
	b.ReportMetric(float64(pass)/float64(total), "conformance")
}

// BenchmarkFig6Scenario reproduces the paper's worked example end to end.
func BenchmarkFig6Scenario(b *testing.B) {
	ok := 0
	for i := 0; i < b.N; i++ {
		res := experiments.Figure6(int64(i + 1))
		if res.QRTransitional && res.PIsolated && res.STOutside && len(res.Violations) == 0 {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N), "reproduced")
}

// BenchmarkFig7VSFilter runs the layered virtual-synchrony stack through a
// partition and validates Birman's model conditions.
func BenchmarkFig7VSFilter(b *testing.B) {
	ok := 0
	for i := 0; i < b.N; i++ {
		res := experiments.Figure7(int64(i + 1))
		if res.VSDeliveriesMinority == 0 && res.EVSDeliveriesMinority > 0 &&
			len(res.VSViolations) == 0 && len(res.EVSViolations) == 0 {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N), "reproduced")
}

// BenchmarkRecoveryVsBacklog measures the EVS recovery algorithm's
// reconfiguration latency as a function of the message backlog outstanding
// at partition time.
func BenchmarkRecoveryVsBacklog(b *testing.B) {
	for _, backlog := range []int{0, 100, 400, 1000} {
		backlog := backlog
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			var ms float64
			n := 0
			for i := 0; i < b.N; i++ {
				row := experiments.Recovery(backlog, int64(i+1))
				if row.RecoveryMs > 0 {
					ms += row.RecoveryMs
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(ms/float64(n), "recovery-vms")
			}
		})
	}
}

// BenchmarkAvailabilityEVSvsVS measures the fraction of live processes able
// to make progress during a partition, per layer. EVS keeps every
// component active; the virtual synchrony filter keeps only the primary
// component.
func BenchmarkAvailabilityEVSvsVS(b *testing.B) {
	for _, split := range []int{4, 3, 2} {
		split := split
		b.Run(fmt.Sprintf("split=%d|%d", split, 5-split), func(b *testing.B) {
			var evsA, vsA float64
			for i := 0; i < b.N; i++ {
				row := experiments.Availability(split, int64(i+1))
				evsA += row.EVSActive
				vsA += row.VSActive
			}
			b.ReportMetric(evsA/float64(b.N), "evs-active")
			b.ReportMetric(vsA/float64(b.N), "vs-active")
		})
	}
}

// BenchmarkPrimaryHistory drives partition/merge storms with the primary
// component algorithm and verifies Uniqueness and Continuity throughout.
func BenchmarkPrimaryHistory(b *testing.B) {
	violations := 0
	primaries := 0
	for i := 0; i < b.N; i++ {
		row := experiments.PrimaryHistory(int64(i + 1))
		violations += row.Violations
		primaries += row.Primaries
	}
	b.ReportMetric(float64(violations), "violations")
	b.ReportMetric(float64(primaries)/float64(b.N), "primaries/run")
}
