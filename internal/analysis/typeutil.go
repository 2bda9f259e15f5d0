package analysis

// Small shared helpers over go/types facts. Every type-aware analyzer
// resolves identifiers through these instead of re-implementing the
// selector/object dance.

import (
	"go/ast"
	"go/types"
)

// unparen strips any number of surrounding parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeObject resolves a call expression's static callee to its
// types.Object: the *types.Func of a direct call or method call, the
// *types.Builtin of a builtin, the *types.TypeName of a conversion, or
// the *types.Var of a func-valued call. Returns nil when the callee is
// not a plain identifier/selector (e.g. a call of a call).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	case *ast.IndexExpr: // generic instantiation F[T](...)
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
		if sel, ok := unparen(fun.X).(*ast.SelectorExpr); ok {
			return info.Uses[sel.Sel]
		}
	}
	return nil
}

// calleePkgFunc returns the package path and name of a call's callee
// when it statically resolves to a package-level function or method;
// ok is false otherwise.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (path, name string, ok bool) {
	fn, isFn := calleeObject(info, call).(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}
