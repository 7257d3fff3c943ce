package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// wallFuncs lists, per package, the functions whose results depend on the
// wall clock or process identity. Referencing any of them (call or value)
// anywhere in the module is a determinism finding: every simulator quantity
// is virtual time, and legitimate wall-clock uses (the benchmark's host
// timers) carry an explicit //simlint:allow.
var wallFuncs = map[string]map[string]bool{
	"time": {
		"Now": true, "Since": true, "Until": true, "Sleep": true,
		"After": true, "AfterFunc": true, "Tick": true,
		"NewTimer": true, "NewTicker": true,
	},
	"os": {"Getpid": true, "Getppid": true},
}

// randCtors are the math/rand package-level functions that construct a
// seeded generator rather than reading the process-global source.
var randCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func checkDeterminism(p *Package, rep *reporter) {
	for _, f := range p.Files {
		checkEntropy(p, rep, f)
	}
	if isSimCore(p.Path) {
		checkMapRanges(p, rep)
	}
}

// checkEntropy flags wall-clock and entropy reads: selector references into
// the banned package-level surface of time, os, math/rand, and crypto/rand.
func checkEntropy(p *Package, rep *reporter, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := p.Info.Uses[x].(*types.PkgName)
		if !ok {
			return true
		}
		pkgPath := pn.Imported().Path()
		name := sel.Sel.Name
		switch {
		case wallFuncs[pkgPath][name]:
			what := "reads the wall clock"
			if pkgPath == "os" {
				what = "reads process identity"
			}
			rep.findf(sel.Pos(), "determinism",
				"%s.%s %s; the simulator runs in virtual time (sim.Time) and must be bit-identical across runs", pkgPath, name, what)
		case pkgPath == "crypto/rand":
			rep.findf(sel.Pos(), "determinism",
				"crypto/rand is nondeterministic entropy; use a seeded *math/rand.Rand")
		case pkgPath == "math/rand" || pkgPath == "math/rand/v2":
			// Methods on a seeded *rand.Rand are fine; only the package-level
			// functions backed by the shared global source are banned. Type
			// names (rand.Rand, rand.Zipf, ...) are fine too.
			if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && !randCtors[name] {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					rep.findf(sel.Pos(), "determinism",
						"%s.%s draws from the process-global random source; use a seeded *rand.Rand (rand.New(rand.NewSource(seed)))", pkgPath, name)
				}
			}
		}
		return true
	})
}

// checkMapRanges flags `range` over a map whose loop body has
// order-dependent effects. Go randomizes map iteration order per run, so any
// such loop in the sim core feeds nondeterminism straight into reports and
// victim selection. Loops whose bodies are order-insensitive — commutative
// accumulation, keyed writes, deletes, or the collect-keys-then-sort idiom —
// pass.
func checkMapRanges(p *Package, rep *reporter) {
	for _, f := range p.Files {
		// Function bodies, innermost located by span, give the scope in
		// which a collected slice must later be sorted.
		var bodies []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					bodies = append(bodies, fn.Body)
				}
			case *ast.FuncLit:
				bodies = append(bodies, fn.Body)
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			encl := enclosingBody(bodies, rs)
			if !mapRangeOrderSafe(p, rs, encl) {
				rep.findf(rs.Pos(), "determinism",
					"iteration over map %s has order-dependent effects and map order is randomized per run; collect the keys, sort them, and iterate the sorted slice", exprString(rs.X))
			}
			return true
		})
	}
}

// enclosingBody returns the smallest function body containing rs.
func enclosingBody(bodies []*ast.BlockStmt, rs *ast.RangeStmt) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, b := range bodies {
		if b.Pos() <= rs.Pos() && rs.End() <= b.End() {
			if best == nil || (best.Pos() <= b.Pos() && b.End() <= best.End()) {
				best = b
			}
		}
	}
	return best
}

// mapRangeOrderSafe implements the order-insensitivity heuristic for one
// map-range loop.
func mapRangeOrderSafe(p *Package, rs *ast.RangeStmt, encl *ast.BlockStmt) bool {
	// Everything declared inside the loop (including the key/value
	// variables) is per-iteration state; writes to it are order-free.
	locals := make(map[types.Object]bool)
	ast.Inspect(rs, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				locals[obj] = true
			}
		}
		return true
	})
	c := &orderCheck{p: p, rs: rs, encl: encl, locals: locals}
	return c.blockSafe(rs.Body)
}

type orderCheck struct {
	p      *Package
	rs     *ast.RangeStmt
	encl   *ast.BlockStmt
	locals map[types.Object]bool
}

func (c *orderCheck) blockSafe(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if !c.stmtSafe(s) {
			return false
		}
	}
	return true
}

func (c *orderCheck) stmtSafe(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.AssignStmt:
		return c.assignSafe(st)
	case *ast.IncDecStmt:
		return true // x++ is commutative wherever x lives
	case *ast.DeclStmt:
		return true
	case *ast.ExprStmt:
		// delete(m, k) commutes across distinct keys; any other
		// statement-level call may have order-dependent effects.
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := c.p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return true
				}
			}
		}
		return false
	case *ast.IfStmt:
		if st.Init != nil && !c.stmtSafe(st.Init) {
			return false
		}
		if !c.blockSafe(st.Body) {
			return false
		}
		if st.Else != nil {
			return c.stmtSafe(st.Else)
		}
		return true
	case *ast.BlockStmt:
		return c.blockSafe(st)
	case *ast.SwitchStmt:
		for _, cl := range st.Body.List {
			for _, cs := range cl.(*ast.CaseClause).Body {
				if !c.stmtSafe(cs) {
					return false
				}
			}
		}
		return true
	case *ast.TypeSwitchStmt:
		for _, cl := range st.Body.List {
			for _, cs := range cl.(*ast.CaseClause).Body {
				if !c.stmtSafe(cs) {
					return false
				}
			}
		}
		return true
	case *ast.ForStmt:
		if st.Init != nil && !c.stmtSafe(st.Init) {
			return false
		}
		if st.Post != nil && !c.stmtSafe(st.Post) {
			return false
		}
		return c.blockSafe(st.Body)
	case *ast.RangeStmt:
		// A nested map range is checked on its own; for the outer loop only
		// its body's effects matter.
		return c.blockSafe(st.Body)
	case *ast.BranchStmt:
		return st.Tok == token.BREAK || st.Tok == token.CONTINUE
	case *ast.ReturnStmt:
		// Returning a value chosen by map order (find-any) is
		// nondeterministic; a bare return is not.
		return len(st.Results) == 0
	case *ast.LabeledStmt:
		return c.stmtSafe(st.Stmt)
	default:
		return false
	}
}

func (c *orderCheck) assignSafe(as *ast.AssignStmt) bool {
	switch as.Tok {
	case token.DEFINE:
		return true
	case token.ADD_ASSIGN:
		// += commutes for numbers but concatenates for strings.
		if t := c.p.Info.TypeOf(as.Lhs[0]); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				return false
			}
		}
		return true
	case token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN,
		token.MUL_ASSIGN, token.AND_NOT_ASSIGN:
		return true
	case token.ASSIGN:
		if c.isCollectAppend(as) {
			return true
		}
		for _, lhs := range as.Lhs {
			if !c.lvalueSafe(lhs) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// lvalueSafe reports whether a plain `=` write target is order-free: a
// per-iteration local, the blank identifier, an element keyed by
// per-iteration state (m2[k] = ..., arr[k] = ...), or a field of a local.
func (c *orderCheck) lvalueSafe(lhs ast.Expr) bool {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return true
		}
		return c.locals[c.p.Info.ObjectOf(l)]
	case *ast.IndexExpr:
		return c.mentionsLocal(l.Index)
	case *ast.SelectorExpr:
		if base, ok := l.X.(*ast.Ident); ok {
			return c.locals[c.p.Info.ObjectOf(base)]
		}
		return false
	default:
		return false
	}
}

func (c *orderCheck) mentionsLocal(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.locals[c.p.Info.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

// isCollectAppend recognizes `s = append(s, ...)` where s is sorted after
// the loop in the same function — the canonical deterministic-iteration fix.
func (c *orderCheck) isCollectAppend(as *ast.AssignStmt) bool {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := c.p.Info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	if len(call.Args) < 1 {
		return false
	}
	firstArg, ok := call.Args[0].(*ast.Ident)
	if !ok || c.p.Info.ObjectOf(firstArg) != c.p.Info.ObjectOf(lhs) {
		return false
	}
	return c.sortedAfterLoop(c.p.Info.ObjectOf(lhs))
}

// sortedAfterLoop looks for a sort.* or slices.* call mentioning obj after
// the loop within the enclosing function body.
func (c *orderCheck) sortedAfterLoop(obj types.Object) bool {
	if c.encl == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(c.encl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < c.rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := c.p.Info.Uses[x].(*types.PkgName)
		if !ok {
			return true
		}
		if pp := pn.Imported().Path(); pp != "sort" && pp != "slices" {
			return true
		}
		for _, a := range call.Args {
			if id, ok := a.(*ast.Ident); ok && c.p.Info.ObjectOf(id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}
