package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CalleeFunc resolves a call expression to the *types.Func it invokes
// (package-level function or method), or nil for builtins, function
// values, and type conversions.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = p.TypesInfo.Uses[fn]
	case *ast.SelectorExpr:
		if sel := p.TypesInfo.Selections[fn]; sel != nil {
			obj = sel.Obj()
		} else {
			obj = p.TypesInfo.Uses[fn.Sel]
		}
	}
	f, _ := obj.(*types.Func)
	return f
}

// IsPkgFunc reports whether the call invokes the named package-level
// function of the package with the given import path.
func (p *Pass) IsPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	f := p.CalleeFunc(call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == pkgPath &&
		f.Name() == name && f.Type().(*types.Signature).Recv() == nil
}

// HasDirective reports whether a comment group contains the given
// machine directive on a line of its own (e.g. "//evs:noalloc").
func HasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == directive {
			return true
		}
	}
	return false
}

// RootIdent walks selector/index/slice/star/paren chains down to the
// base identifier of an expression: the x in x.f[i][a:b]. It returns
// nil when the base is not a plain identifier (e.g. a call result,
// whose value is freshly owned by the caller).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// IsSliceOrMap reports whether t's underlying type aliases backing
// storage that two values can share (slice or map).
func IsSliceOrMap(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// NamedOf unwraps pointers and returns the named type of t, or nil.
func NamedOf(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// PathHasPrefix reports whether an import path is the given path or a
// subpackage of it.
func PathHasPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}
