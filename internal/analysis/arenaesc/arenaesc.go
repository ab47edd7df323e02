// Package arenaesc polices the lifetime of arena-carved memory. The
// zero-alloc data path (DESIGN.md §13) works by carving values out of
// reusable storage — the stable store's payload chunk arena, the
// simulator's pooled event slots, Group.wrapApp's envelope arena, the
// totem ring's per-visit scratch buffers, the receive buffer a decoded
// wire message aliases — and each of those has a reset point: a trim,
// a free-list release, a reuse of the chunk or buffer, the next call
// into the ring. A carved value that outlives the reset point is a
// use-after-reuse bug that no test reliably catches, because the
// corruption lands wherever the arena's next tenant happens to be.
//
// The contract: a function is an arena allocator iff its doc comment
// carries the //evs:arena directive (or it appears in the cross-package
// registry below, mirroring tags the per-package loader cannot see).
// Values rooted in an allocator's results — resolved through locals,
// field loads and same-package calls by the internal/analysis/ssa
// layer — must not, outside the allocator's own package machinery:
//
//   - escape via return from an untagged function (tag the function to
//     extend the contract to its callers, or copy out)
//   - be stored into package-level state
//   - be stored into memory owned by anything other than the arena's
//     own owner (the receiver path at the carve site: carving from s
//     and storing into s.log stays inside s's lifetime domain; storing
//     into a different structure leaks)
//   - be captured by a spawned goroutine or sent on a channel (the
//     goroutine races the reset point)
//
// Passing a carved value as a plain call argument is allowed: a call
// returns before control can reach the arena's reset point, and the
// callee's own retention behaviour is policed where the callee lives.
// Functions tagged //evs:arena are exempt inside their own bodies —
// they are the arena machinery. Deliberate handoffs that are safe for a
// documented reason carry //lint:allow arenaesc <reason>.
package arenaesc

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/ssa"
)

// Analyzer is the arena-escape checker.
var Analyzer = &analysis.Analyzer{
	Name: "arenaesc",
	Doc:  "forbid arena/pool-carved memory escaping its allocator's reset point",
	Run:  run,
}

// crossPkgArenas mirrors //evs:arena tags across package boundaries:
// analyzers see dependencies as compiler export data, never as syntax,
// so a tag on an exported allocator is invisible to its importers. Keys
// are types.Func.FullName strings.
var crossPkgArenas = map[string]bool{
	// totem's per-visit results alias ring scratch, valid until the
	// next call into the Ring (see the OnData/OnToken doc contracts).
	"(*repro/internal/totem.Ring).OnData":      true,
	"(*repro/internal/totem.Ring).OnDataBatch": true,
	"(*repro/internal/totem.Ring).OnToken":     true,
	// The wire decoder's results alias the input buffer (payloads), valid
	// for as long as the reader that owns the buffer leaves it alone.
	"(*repro/internal/wire.Decoder).Decode":     true,
	"(*repro/internal/wire.Decoder).DecodeData": true,
}

// IsArena reports whether callee is a registered cross-package arena
// allocator (the ssa.Build hook).
func IsArena(callee *types.Func) bool {
	return crossPkgArenas[callee.FullName()]
}

func run(pass *analysis.Pass) error {
	p := ssa.Build(pass, IsArena)
	for _, f := range p.Funcs() {
		if analysis.HasDirective(f.Decl.Doc, ssa.ArenaDirective) {
			continue // the arena machinery manages its own memory
		}
		check(p, f)
	}
	return nil
}

func check(p *ssa.Package, f *ssa.Func) {
	// Returns: outer function only (a literal returns to its own caller,
	// which the store/capture rules cover at the use site).
	outerReturns(f.Decl.Body, func(ret *ast.ReturnStmt) {
		for _, e := range ret.Results {
			if r, ok := arenaRoot(f, e); ok {
				p.Pass.Reportf(e.Pos(),
					"arena memory carved by %s escapes via return; copy out or tag this function //evs:arena",
					carverName(r))
			}
		}
	})

	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			checkStores(p, f, v)
		case *ast.SendStmt:
			if r, ok := arenaRoot(f, v.Value); ok {
				p.Pass.Reportf(v.Pos(),
					"arena memory carved by %s is sent on a channel, escaping the arena's reset point",
					carverName(r))
			}
		case *ast.GoStmt:
			for _, e := range p.GoCaptured(f, v) {
				if r, ok := arenaRoot(f, e); ok {
					p.Pass.Reportf(v.Pos(),
						"arena memory carved by %s is captured by a goroutine racing the arena's reset point",
						carverName(r))
					break
				}
			}
		}
		return true
	})
}

// checkStores flags assignments that put arena-carved memory somewhere
// longer-lived than the arena's owner.
func checkStores(p *ssa.Package, f *ssa.Func, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		rhs := pairedRhs(as, i)
		if rhs == nil {
			continue
		}
		r, ok := arenaRoot(f, rhs)
		if !ok {
			continue
		}
		containers := storeContainers(p, f, lhs)
		for _, c := range containers {
			switch c.Kind {
			case ssa.Arena:
				// Wiring arena memory into arena memory (free lists,
				// entry links) stays inside the lifetime domain.
				continue
			case ssa.Global:
				p.Pass.Reportf(as.Pos(),
					"arena memory carved by %s is stored into package-level %s, outliving the arena's reset point",
					carverName(r), c.Obj.Name())
			case ssa.Param:
				if ownedBy(f, r, c, lhs) {
					continue
				}
				p.Pass.Reportf(as.Pos(),
					"arena memory carved by %s is stored into %s, which is not the arena's owner (%s) and outlives its reset point",
					carverName(r), ssa.ExprString(storeBase(lhs)), ownerName(r))
			}
		}
	}
}

// ownedBy reports whether a store into container c keeps carved memory
// inside the arena owner's lifetime domain: the store path extends the
// owner path ("s" owns "s.log[i]"), or the container is rooted at the
// very object the carve's receiver was rooted at (covers aliases like
// e := s.log[seq]; e.Payload = s.carve(n)).
func ownedBy(f *ssa.Func, r ssa.Root, c ssa.Root, lhs ast.Expr) bool {
	if r.Owner != "" {
		if base := ssa.PathOf(storeBase(lhs)); base != "" && ssa.SamePathOwner(r.Owner, base) {
			return true
		}
	}
	return r.OwnerObj != nil && c.Obj == r.OwnerObj
}

// storeBase returns the expression whose memory an assignment target
// writes into: x for x.f, x[i] and *x; lhs itself otherwise.
func storeBase(lhs ast.Expr) ast.Expr {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return v.X
	case *ast.IndexExpr:
		return v.X
	case *ast.StarExpr:
		return v.X
	}
	return lhs
}

// storeContainers resolves an assignment target to the roots of the
// written memory; package-level idents count, plain locals do not
// (rebinding a local is a def, not a store).
func storeContainers(p *ssa.Package, f *ssa.Func, lhs ast.Expr) []ssa.Root {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj, ok := p.Pass.TypesInfo.ObjectOf(v).(*types.Var); ok &&
			obj.Parent() == p.Pass.Pkg.Scope() {
			return []ssa.Root{{Kind: ssa.Global, Obj: obj}}
		}
		return nil
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		base := storeBase(lhs)
		// A store through a struct-typed VALUE (c.Payload = x after
		// c := d) writes the local's own copy, not the memory its
		// initializer aliased; the carved root flows into the local's
		// defs instead, so escapes of the whole struct stay visible.
		if _, isSel := lhs.(*ast.SelectorExpr); isSel && ssa.IsValueStructLocal(p.Pass, base) {
			return nil
		}
		return f.Roots(base)
	}
	return nil
}

func pairedRhs(as *ast.AssignStmt, i int) ast.Expr {
	if len(as.Lhs) == len(as.Rhs) {
		return as.Rhs[i]
	}
	if len(as.Rhs) == 1 {
		return as.Rhs[0]
	}
	return nil
}

// arenaRoot resolves e and returns its arena root, if any. Expressions
// whose values cannot alias backing storage (numerics, bools, strings —
// a sequence number loaded from an arena entry) never carry arena
// memory out.
func arenaRoot(f *ssa.Func, e ast.Expr) (ssa.Root, bool) {
	if t := f.Pkg().Pass.TypeOf(e); t != nil && !ssa.SharesMemory(t) {
		return ssa.Root{}, false
	}
	for _, r := range f.Roots(e) {
		if r.Kind == ssa.Arena {
			return r, true
		}
	}
	return ssa.Root{}, false
}

func carverName(r ssa.Root) string {
	if r.Fn == nil {
		return "an //evs:arena allocator"
	}
	if r.Owner != "" {
		return r.Owner + "." + r.Fn.Name()
	}
	return r.Fn.Name()
}

func ownerName(r ssa.Root) string {
	if r.Owner != "" {
		return r.Owner
	}
	return "the allocator's receiver"
}

// outerReturns visits every return statement of the function body that
// is not inside a function literal.
func outerReturns(body *ast.BlockStmt, fn func(*ast.ReturnStmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			fn(v)
		}
		return true
	})
}
