// Package wireown enforces copy-ownership of wire message storage: a
// wire.Message must not share backing arrays with memory its builder or
// its receiver goes on mutating. The medium hands one message value to
// every receiver of a broadcast without deep-copying (that is what makes
// the batching path cheap), so the whole stack leans on a convention —
// messages are immutable after handoff — that nothing used to check.
// The deep-copy rules in the batching path were hand-audited; this
// analyzer mechanises the audit at the sites where aliases are created.
//
// Two alias-creating shapes are flagged:
//
//   - construction: a composite literal (or field assignment) of a wire
//     message type whose slice- or map-typed field is filled from an
//     expression rooted at a function parameter or at receiver state.
//     The caller (or the state machine) still holds that memory and may
//     mutate it after the message is handed to the medium. Fresh values
//     — call results, literals, make/append products — are silent.
//
//   - retention: a handler storing a slice/map reached through a wire
//     message parameter into receiver state or a package variable. The
//     message's arrays are shared with every other receiver of the same
//     broadcast; retaining one without copying couples the processes.
//
// Aliases are resolved by the internal/analysis/ssa dataflow layer, so
// both shapes are caught through local variables and through
// same-package helpers: a message field filled from `clip(p)` where clip
// returns its parameter is flagged the same as one filled from p
// directly, and a handler that launders a message slice through a local
// before retaining it no longer slips past.
//
// A site where the aliasing is deliberate and audited (the batch is
// broadcast and never touched again, the log entry is immutable by
// construction) carries //lint:allow wireown <reason> — the reason is
// the audit.
package wireown

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/ssa"
)

// wirePaths are the packages whose message types carry the copy-ownership
// convention, each with a filter selecting the types that actually cross
// a process boundary. Everything in internal/wire is a message; in
// internal/groups only the envelopes and the values handed to every
// member (deliveries, views, the structures riding inside envelopes)
// carry the convention — the Mux and SymbolTable are per-process state
// machines whose internal aliasing is their own business.
var wirePaths = map[string]func(name string) bool{
	"repro/internal/wire": func(string) bool { return true },
	"repro/internal/groups": func(name string) bool {
		switch name {
		case "Envelope", "Deliver", "ViewChange", "ClientSub", "ClientOp":
			return true
		}
		return false
	},
}

// Analyzer is the copy-ownership checker.
var Analyzer = &analysis.Analyzer{
	Name: "wireown",
	Doc:  "forbid wire messages aliasing caller- or state-owned slices/maps, and handlers retaining message slices",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	p := ssa.Build(pass, nil)
	for _, f := range p.Funcs() {
		checkFunc(p, f)
	}
	return nil
}

// owned classifies the parameters whose type is a wire message (value or
// pointer), mapped to that message type's name — the handler-retention
// rule's sources.
type owned struct {
	recv       types.Object
	wireParams map[types.Object]string
}

func collectOwned(f *ssa.Func) *owned {
	o := &owned{recv: f.Recv(), wireParams: map[types.Object]string{}}
	for _, obj := range f.Params() {
		if n := wireNamed(obj.Type()); n != "" {
			o.wireParams[obj] = n
		}
	}
	return o
}

// wireNamed returns the package-qualified type name ("wire.Token",
// "groups.Envelope") if t (or its pointee) is a named type declared in
// one of the policed message packages, else "".
func wireNamed(t types.Type) string {
	n := analysis.NamedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	filter := wirePaths[n.Obj().Pkg().Path()]
	if filter == nil || !filter(n.Obj().Name()) {
		return ""
	}
	return n.Obj().Pkg().Name() + "." + n.Obj().Name()
}

func checkFunc(p *ssa.Package, f *ssa.Func) {
	own := collectOwned(f)
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CompositeLit:
			checkConstruction(p, f, v)
		case *ast.AssignStmt:
			checkAssign(p, f, own, v)
		}
		return true
	})
}

// checkConstruction flags slice/map fields of a wire composite literal
// filled from parameter- or receiver-rooted memory.
func checkConstruction(p *ssa.Package, f *ssa.Func, cl *ast.CompositeLit) {
	name := wireNamed(p.Pass.TypeOf(cl))
	if name == "" {
		return
	}
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		field, ok := p.Pass.ObjectOf(key).(*types.Var)
		if !ok || !analysis.IsSliceOrMap(field.Type()) {
			continue
		}
		reportAliased(p, f, kv.Value, name, field.Name())
	}
}

// checkAssign flags two shapes: writing owned memory into a slice/map
// field of an existing wire message value (construction by mutation),
// and storing a wire parameter's slice/map field into receiver state or
// a package variable (retention).
func checkAssign(p *ssa.Package, f *ssa.Func, own *owned, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break // x, y := f() — call results are fresh
		}
		rhs := as.Rhs[i]

		// Construction by mutation: msg.Field = <owned memory>.
		if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
			if name := wireNamed(p.Pass.TypeOf(sel.X)); name != "" {
				if t := p.Pass.TypeOf(lhs); t != nil && analysis.IsSliceOrMap(t) {
					reportAliased(p, f, rhs, name, sel.Sel.Name)
				}
			}
		}

		// Retention: state = <memory rooted at a wire parameter's field>.
		t := p.Pass.TypeOf(rhs)
		if t == nil || !analysis.IsSliceOrMap(t) {
			continue
		}
		if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
			if _, whole := own.wireParams[p.Pass.ObjectOf(id)]; whole {
				// The whole message (not a field of it) being copied around
				// is the normal value-semantics flow.
				continue
			}
		}
		if !retains(p, f, own, lhs) {
			continue
		}
		for _, r := range f.Roots(rhs) {
			if r.Kind != ssa.Param {
				continue
			}
			msgName, isWireParam := own.wireParams[r.Obj]
			if !isWireParam {
				continue
			}
			p.Pass.Reportf(as.Pos(),
				"handler retains slice/map from %s parameter %s; the backing array is shared with every receiver of the broadcast — copy it",
				msgName, r.Obj.Name())
			break
		}
	}
}

// reportAliased reports value if its memory may be rooted at a parameter
// or at receiver state — resolved through locals and same-package calls
// by the dataflow layer. Fresh values (literals, make/append products,
// external call results) are silent.
func reportAliased(p *ssa.Package, f *ssa.Func, value ast.Expr, msg, field string) {
	for _, r := range f.Roots(value) {
		if r.Kind != ssa.Param {
			continue
		}
		who := "caller-owned (parameter " + r.Obj.Name() + ")"
		if r.Obj == f.Recv() {
			who = "state-owned (receiver " + r.Obj.Name() + ")"
		}
		p.Pass.Reportf(value.Pos(),
			"%s field %s aliases %s memory; the message escapes to the medium uncopied — copy the slice/map or annotate the audited handoff",
			msg, field, who)
		return
	}
}

// retains reports whether the assignment target outlives the call:
// a package-level variable, or memory rooted at the receiver or at
// package state (resolved through aliases — a map loaded from receiver
// state into a local still retains).
func retains(p *ssa.Package, f *ssa.Func, own *owned, lhs ast.Expr) bool {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj, ok := p.Pass.ObjectOf(v).(*types.Var)
		return ok && obj.Parent() == p.Pass.Pkg.Scope()
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		var base ast.Expr
		switch b := v.(type) {
		case *ast.SelectorExpr:
			base = b.X
		case *ast.IndexExpr:
			base = b.X
		case *ast.StarExpr:
			base = b.X
		}
		for _, r := range f.Roots(base) {
			switch r.Kind {
			case ssa.Global:
				return true
			case ssa.Param:
				if r.Obj == own.recv {
					return true
				}
			}
		}
	}
	return false
}
