package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkConcurrency flags goroutines, channels, select, and sync primitives.
// The simulator is a single-threaded virtual-time event loop: concurrency in
// a model package would both break run-to-run determinism and invalidate the
// busy-until resource model. The only legitimate home for goroutines is the
// command binaries that wrap the simulator, which are scope-exempt (see
// concurrencyExempt).
func checkConcurrency(p *Package, rep *reporter) {
	if concurrencyExempt(p.Path) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.GoStmt:
				rep.findf(e.Pos(), "concurrency",
					"go statement spawns a goroutine; the sim core is a single-threaded virtual-time loop (concurrency belongs in cmd/)")
			case *ast.SelectStmt:
				rep.findf(e.Pos(), "concurrency",
					"select statement implies channel concurrency; schedule virtual-time events on the sim loop instead")
			case *ast.SendStmt:
				rep.findf(e.Pos(), "concurrency",
					"channel send; the sim core communicates through direct calls in virtual-time order")
			case *ast.UnaryExpr:
				if e.Op == token.ARROW {
					rep.findf(e.Pos(), "concurrency",
						"channel receive; the sim core communicates through direct calls in virtual-time order")
				}
			case *ast.ChanType:
				rep.findf(e.Pos(), "concurrency",
					"channel type; the sim core is single-threaded and must not hold channels")
			case *ast.SelectorExpr:
				x, ok := e.X.(*ast.Ident)
				if !ok {
					return true
				}
				if pn, ok := p.Info.Uses[x].(*types.PkgName); ok {
					if pp := pn.Imported().Path(); pp == "sync" || pp == "sync/atomic" {
						rep.findf(e.Pos(), "concurrency",
							"%s.%s: the sim core is single-threaded and needs no synchronization", pp, e.Sel.Name)
					}
				}
			}
			return true
		})
	}
}
