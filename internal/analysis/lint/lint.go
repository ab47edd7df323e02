// Package lint assembles the repo's analyzer suite: the registry
// cmd/evslint and TestTreeClean run, and the shared load-and-check entry
// point. The suite's seven analyzers each encode one invariant the
// repo's correctness story rests on:
//
//	determinism  no wall clock, global randomness, or order-leaking
//	             map iteration in the simulator/checker zone
//	noalloc      no allocating construct classes in //evs:noalloc
//	             hot-path functions
//	nopanic      no panic/log.Fatal/os.Exit in protocol packages
//	wireown      no wire messages aliasing caller- or state-owned
//	             slices; no handlers retaining message slices
//	lockheld     no blocking operations while holding a mutex in the
//	             live runtime, transports and daemon (SSA-transitive)
//	arenaesc     no //evs:arena-carved memory escaping its allocator's
//	             reset point (returns, globals, cross-owner stores,
//	             goroutine captures, channel sends)
//	golife       every goroutine in the live runtime, transports and
//	             daemon joined or cancellable by Close
//
// The last three ride the internal/analysis/ssa dataflow layer, which
// resolves aliases through locals and same-package calls.
//
// Suppression is per-site and audited: //lint:allow <analyzer> <reason>
// (see the analysis package). The registry is also the vocabulary the
// allow validator accepts — an allow naming anything else is itself a
// diagnostic.
package lint

import (
	"repro/internal/analysis"
	"repro/internal/analysis/arenaesc"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/golife"
	"repro/internal/analysis/lockheld"
	"repro/internal/analysis/noalloc"
	"repro/internal/analysis/nopanic"
	"repro/internal/analysis/wireown"
)

// Analyzers returns the full suite, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		noalloc.Analyzer,
		nopanic.Analyzer,
		wireown.Analyzer,
		lockheld.Analyzer,
		arenaesc.Analyzer,
		golife.Analyzer,
	}
}

// Check loads the packages matching the patterns (from dir) and runs the
// whole suite, returning the surviving diagnostics.
func Check(dir string, patterns ...string) ([]analysis.Diagnostic, error) {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.Check(pkgs, Analyzers())
}

// CheckAudit is Check plus the stale-waiver audit: it additionally
// reports every well-formed //lint:allow that suppressed nothing.
func CheckAudit(dir string, patterns ...string) ([]analysis.Diagnostic, error) {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.CheckAudit(pkgs, Analyzers())
}
