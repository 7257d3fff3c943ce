// Static type and callee resolution shared by the pairing and exhaustive
// rules.

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// shortPkg trims the module prefix for findings: "blockhead/internal/flash"
// reads better as "flash".
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// namedOf unwraps pointers to the underlying named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// calleeOf resolves a call expression's static callee; nil for builtins,
// conversions, function values, and dynamic (interface) calls.
func calleeOf(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
