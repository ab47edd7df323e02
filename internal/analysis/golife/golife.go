// Package golife polices goroutine lifecycle in the wall-clock cluster,
// the process spine, the transports (hub and sockets) and the daemon: every spawned goroutine must have a
// shutdown path that Close can drive. A goroutine with neither a join
// nor a cancel leaks past Close — in tests it trips the race detector
// long after the transport is gone, and in evsd it holds sockets and
// file handles a restarting process needs back. The contract a spawn
// must meet (any one suffices):
//
//   - joined: the goroutine's body calls Done on a sync.WaitGroup that
//     some function in the package Waits on (Close, in practice). The
//     WaitGroup is identified structurally — a struct field, a
//     package-level variable, or a *sync.WaitGroup parameter resolved
//     through the go statement's argument binding (the
//     `go p.receive(ch, &g.wg)` idiom) — via the internal/analysis/ssa
//     layer's one-level call indirection.
//   - cancelled: the body receives from (or ranges over, or selects on)
//     a channel that some function in the package close()s, so Close
//     can make the goroutine observe shutdown.
//
// The body is resolved through one level of same-package calls: a
// `go t.drain(id, s)` is checked against drain's body, and helpers
// drain itself calls are expanded one level further. Deliberate
// fire-and-forget goroutines carry //lint:allow golife <reason>.
//
// The companion invariant — no blocking channel sends while holding a
// lock — lives in lockheld, which shares the same SSA blocking
// summaries.
package golife

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/ssa"
)

// Analyzer is the goroutine-lifecycle checker.
var Analyzer = &analysis.Analyzer{
	Name:      "golife",
	Doc:       "every goroutine in the wall-clock cluster, spine, transports and daemon must be joined or cancellable by Close",
	AppliesTo: AppliesTo,
	Run:       run,
}

// AppliesTo covers the wall-clock cluster (root package), the process
// spine, the transports (hub.go included) and the daemon — the packages
// whose goroutines outlive a test or a process unless Close reaps them.
// Fixtures load under the transport zone.
func AppliesTo(path string) bool {
	return path == "repro" ||
		analysis.PathHasPrefix(path, "repro/live") ||
		analysis.PathHasPrefix(path, "repro/internal/spine") ||
		analysis.PathHasPrefix(path, "repro/internal/transport") ||
		analysis.PathHasPrefix(path, "repro/internal/daemon")
}

func run(pass *analysis.Pass) error {
	p := ssa.Build(pass, nil)
	ev := collectEvidence(pass)
	for _, f := range p.Funcs() {
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkSpawn(p, f, g, ev)
			return true
		})
	}
	return nil
}

// evidence is the package-wide shutdown machinery: which WaitGroups are
// Waited on, and which channels are closed.
type evidence struct {
	waited map[types.Object]bool
	closed map[types.Object]bool
}

func collectEvidence(pass *analysis.Pass) *evidence {
	ev := &evidence{waited: map[types.Object]bool{}, closed: map[types.Object]bool{}}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) == 1 {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					if obj := resolveTarget(pass, call.Args[0], nil); obj != nil {
						ev.closed[obj] = true
					}
				}
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
				sel.Sel.Name == "Wait" && isWaitGroup(pass.TypeOf(sel.X)) {
				if obj := resolveTarget(pass, sel.X, nil); obj != nil {
					ev.waited[obj] = true
				}
			}
			return true
		})
	}
	return ev
}

func isWaitGroup(t types.Type) bool {
	n := analysis.NamedOf(t)
	return n != nil && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup"
}

// frame carries the parameter bindings of one resolved call body, so a
// Done on a *sync.WaitGroup parameter maps back through the go
// statement's arguments to the WaitGroup the caller actually passed.
type frame struct {
	fn *ssa.Func
	pm map[types.Object]bound
}

type bound struct {
	e ast.Expr
	f *frame
}

// resolveTarget maps an expression to the stable object identifying its
// storage: a struct field (the same *types.Var in every function that
// touches it), a package-level or local variable, or — through frame
// bindings — the object behind a parameter.
func resolveTarget(pass *analysis.Pass, e ast.Expr, fr *frame) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.UnaryExpr:
			if v.Op.String() != "&" {
				return nil
			}
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SelectorExpr:
			if sel := pass.TypesInfo.Selections[v]; sel != nil {
				if sel.Kind() == types.FieldVal {
					return sel.Obj()
				}
				return nil
			}
			return pass.TypesInfo.Uses[v.Sel] // qualified package-level var
		case *ast.Ident:
			obj := pass.TypesInfo.ObjectOf(v)
			if fr != nil {
				if b, ok := fr.pm[obj]; ok {
					return resolveTarget(pass, b.e, b.f)
				}
			}
			return obj
		default:
			return nil
		}
	}
}

// shutdown is what a goroutine body offers as exit paths.
type shutdown struct {
	done []types.Object // WaitGroups the body signals Done on
	recv []types.Object // channels the body receives from
}

func checkSpawn(p *ssa.Package, f *ssa.Func, g *ast.GoStmt, ev *evidence) {
	var sd shutdown
	seen := map[*ast.BlockStmt]bool{}
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		scanBody(p, fun.Body, &frame{fn: f}, &sd, seen, 0)
	default:
		if callee := p.Pass.CalleeFunc(g.Call); callee != nil {
			if cf := p.FuncOf(callee); cf != nil {
				scanBody(p, cf.Decl.Body, bindFrame(p, cf, g.Call, &frame{fn: f}), &sd, seen, 0)
			}
		}
	}
	for _, o := range sd.done {
		if ev.waited[o] {
			return // joined
		}
	}
	for _, o := range sd.recv {
		if ev.closed[o] {
			return // cancellable
		}
	}
	switch {
	case len(sd.done) > 0:
		p.Pass.Reportf(g.Pos(),
			"goroutine signals %s.Done but nothing in the package Waits on it, so Close cannot join it",
			sd.done[0].Name())
	case len(sd.recv) > 0:
		p.Pass.Reportf(g.Pos(),
			"goroutine only waits on %s, which nothing in the package closes, so Close cannot cancel it",
			sd.recv[0].Name())
	default:
		p.Pass.Reportf(g.Pos(),
			"goroutine has no shutdown path: no WaitGroup.Done with a package-level Wait, and no receive on a channel the package closes; join or cancel it in Close")
	}
}

// bindFrame builds the parameter→argument bindings for a resolved call.
func bindFrame(p *ssa.Package, callee *ssa.Func, call *ast.CallExpr, caller *frame) *frame {
	fr := &frame{fn: callee, pm: map[types.Object]bound{}}
	params := callee.Params()
	var args [][]ast.Expr
	if callee.Obj != nil {
		args = p.BindArgs(callee.Obj, call)
	}
	for i, obj := range params {
		if i < len(args) && len(args[i]) == 1 {
			fr.pm[obj] = bound{e: args[i][0], f: caller}
		}
	}
	return fr
}

// scanBody collects Done calls and channel receives from a goroutine
// body, expanding same-package calls one extra level so helpers that
// carry the defer wg.Done() are seen.
func scanBody(p *ssa.Package, body *ast.BlockStmt, fr *frame, sd *shutdown, seen map[*ast.BlockStmt]bool, depth int) {
	if body == nil || seen[body] || depth > 2 {
		return
	}
	seen[body] = true
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			return false // a nested spawn is its own obligation
		case *ast.UnaryExpr:
			if v.Op.String() == "<-" {
				if t := p.Pass.TypeOf(v.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						if obj := resolveTarget(p.Pass, v.X, fr); obj != nil {
							sd.recv = append(sd.recv, obj)
						}
					}
				}
			}
		case *ast.RangeStmt:
			if t := p.Pass.TypeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					if obj := resolveTarget(p.Pass, v.X, fr); obj != nil {
						sd.recv = append(sd.recv, obj)
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok &&
				sel.Sel.Name == "Done" && isWaitGroup(p.Pass.TypeOf(sel.X)) {
				if obj := resolveTarget(p.Pass, sel.X, fr); obj != nil {
					sd.done = append(sd.done, obj)
				}
				return true
			}
			if callee := p.Pass.CalleeFunc(v); callee != nil {
				if cf := p.FuncOf(callee); cf != nil {
					scanBody(p, cf.Decl.Body, bindFrame(p, cf, v, fr), sd, seen, depth+1)
				}
			}
		}
		return true
	})
}
