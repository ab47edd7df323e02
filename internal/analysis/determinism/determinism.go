// Package determinism enforces the repo's deterministic-zone invariant:
// the simulator, protocol state machines, and checker must compute the
// same execution from the same seed, byte for byte, or chaos reproducers
// and the differential oracle are worthless.
//
// Inside the zone the analyzer forbids:
//
//   - wall-clock reads: time.Now, time.Since, time.Until
//   - wall-clock scheduling: time.Sleep, time.After, time.AfterFunc,
//     time.Tick, time.NewTimer, time.NewTicker (protocol timers go
//     through the injected environment clock; the simulator owns time)
//   - the global math/rand source (rand.Intn and friends): randomness
//     must come from a seeded rand.New(rand.NewSource(seed))
//   - unordered map iteration that feeds output: a range over a map
//     whose body prints, sends on a channel, or accumulates a slice
//     that is not canonicalised (sorted) afterwards. Iteration order
//     would then leak into traces, wire messages, or checker verdicts.
//
// Where a flagged construct is provably harmless (order-independent
// accumulation, measurement-only timing in the experiments package),
// the site carries a //lint:allow determinism <reason> annotation: the
// reason documents the argument, and the analyzer keeps every new site
// honest.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name:      "determinism",
	Doc:       "forbid wall-clock, global randomness, and order-leaking map iteration in the deterministic zone",
	AppliesTo: InZone,
	Run:       run,
}

// zone lists the deterministic packages: everything executed under the
// simulator or the checker, where a replayed seed must reproduce the
// original execution exactly. experiments is included so its
// measurement-only wall-clock reads stay explicitly annotated, and so
// are spine, transport and daemon: the spine runs under the simulator as
// well as the wall clock, the other two against real time by nature, and
// every wall-clock read there must be annotated with why it cannot leak
// into protocol state the simulator would replay differently.
var zone = []string{
	"sim", "netsim", "totem", "node", "membership", "spec",
	"chaos", "vclock", "wire", "stable", "seqlog", "experiments",
	"spine", "transport", "daemon",
}

// InZone reports whether the import path is in the deterministic zone.
func InZone(path string) bool {
	for _, z := range zone {
		if analysis.PathHasPrefix(path, "repro/internal/"+z) {
			return true
		}
	}
	return false
}

// forbiddenTime are the package-level time functions that read or
// schedule against the wall clock.
var forbiddenTime = map[string]string{
	"Now":       "use the injected clock (sim.Scheduler.Now / obs clock)",
	"Since":     "compute durations from the injected clock",
	"Until":     "compute durations from the injected clock",
	"Sleep":     "schedule through the simulator or the environment timer",
	"After":     "schedule through the simulator or the environment timer",
	"AfterFunc": "schedule through the simulator or the environment timer",
	"Tick":      "schedule through the simulator or the environment timer",
	"NewTimer":  "schedule through the simulator or the environment timer",
	"NewTicker": "schedule through the simulator or the environment timer",
}

// allowedRand are the math/rand constructors that build an explicitly
// seeded generator — the sanctioned alternative to the global source.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, v)
		case *ast.RangeStmt:
			if t := pass.TypeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					checkMapRange(pass, fd, v)
				}
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	f := pass.CalleeFunc(call)
	if f == nil || f.Pkg() == nil {
		return
	}
	if sig, ok := f.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn, time.Time.Sub) are fine
	}
	switch f.Pkg().Path() {
	case "time":
		if hint, bad := forbiddenTime[f.Name()]; bad {
			pass.Reportf(call.Pos(),
				"time.%s is nondeterministic in the deterministic zone; %s", f.Name(), hint)
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[f.Name()] {
			pass.Reportf(call.Pos(),
				"global math/rand source (rand.%s) is nondeterministic under concurrency; use a seeded rand.New(rand.NewSource(seed))", f.Name())
		}
	}
}

// checkMapRange flags map iterations whose body feeds output whose
// order the iteration decides.
func checkMapRange(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	// appended collects the objects of slice variables grown inside the
	// loop; each must be canonicalised after the loop or it carries map
	// order outward.
	appended := map[types.Object]token.Pos{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false // deferred/alternative control flow; not this loop's output
		case *ast.SendStmt:
			pass.Reportf(v.Pos(),
				"channel send inside map iteration leaks nondeterministic order; iterate a sorted key slice")
		case *ast.CallExpr:
			if isOutputCall(pass, v) {
				pass.Reportf(v.Pos(),
					"output call inside map iteration leaks nondeterministic order; iterate a sorted key slice")
			}
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(v.Lhs) || len(call.Args) == 0 {
					continue
				}
				id := analysis.RootIdent(v.Lhs[i])
				if id == nil {
					continue
				}
				obj := pass.ObjectOf(id)
				if obj == nil {
					continue
				}
				// Only self-appends accumulate across iterations; a copy
				// into a fresh slice (x = append([]T(nil), src...)) does
				// not carry map order outward.
				if first := analysis.RootIdent(call.Args[0]); first == nil || pass.ObjectOf(first) != obj {
					continue
				}
				// A per-iteration local is rebuilt each key; its order
				// within one iteration is map-independent.
				if obj.Pos() >= rng.Body.Pos() && obj.Pos() <= rng.Body.End() {
					continue
				}
				if _, seen := appended[obj]; !seen {
					appended[obj] = v.Pos()
				}
			}
		}
		return true
	})
	for obj, pos := range appended {
		if !canonicalizedAfter(pass, fd, rng, obj) {
			pass.Reportf(pos,
				"slice %s accumulates map-ordered elements and is not sorted afterwards; sort it (or the keys) before use", obj.Name())
		}
	}
}

// isOutputCall reports whether the call writes directly to an output
// sink: fmt printing, or a Write*/Printf-style method on any receiver
// (io.Writer, strings.Builder, bufio.Writer, ...).
func isOutputCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	f := pass.CalleeFunc(call)
	if f == nil {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return false
	}
	if sig.Recv() == nil {
		if f.Pkg() == nil || f.Pkg().Path() != "fmt" {
			return false
		}
		name := f.Name()
		return len(name) >= 5 && (name[:5] == "Print" || name[:6] == "Fprint")
	}
	switch f.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Printf":
		return true
	}
	return false
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// canonicalizedAfter reports whether obj is passed to a sorting
// (canonicalising) call somewhere after the range statement in the
// enclosing function: sort.*, slices.Sort*, a Sort method, or
// model.NewProcessSet (which sorts and dedups its arguments).
func canonicalizedAfter(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || !isCanonicalizer(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			if id := analysis.RootIdent(arg); id != nil && pass.ObjectOf(id) == obj {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

func isCanonicalizer(pass *analysis.Pass, call *ast.CallExpr) bool {
	f := pass.CalleeFunc(call)
	if f == nil {
		return false
	}
	if f.Name() == "Sort" || f.Name() == "NewProcessSet" {
		return true
	}
	if f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return len(f.Name()) >= 4 && f.Name()[:4] == "Sort"
	}
	return false
}
