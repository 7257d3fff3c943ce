// The pairing rule: AttrSink bracket discipline as a path property. The
// attribution engine's runtime invariants (sum(phases) == latency,
// sum(blame) == sum(stalls)) hold only if every Begin reaches End/Drop on
// every path, Suspend/Resume and PushWorker/PopWorker balance on every path
// including early returns, and charges land inside an open bracket. The
// runtime panics when they don't — this rule moves the check to lint time by
// running the cfg.go path engine over every sim-core function that touches
// the bracket protocol.

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// attrSinkOp classifies a call as a bracket op when its static callee is a
// method of the telemetry AttrSink type.
func attrSinkOp(p *Package, call *ast.CallExpr) opKind {
	fn := calleeOf(p, call)
	if fn == nil {
		return builtinTerminator(p, call)
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return funcTerminator(fn)
	}
	n := namedOf(sig.Recv().Type())
	if n == nil || n.Obj().Name() != "AttrSink" || n.Obj().Pkg() == nil ||
		!strings.HasSuffix(n.Obj().Pkg().Path(), "telemetry") {
		return opNone
	}
	switch fn.Name() {
	case "Begin", "BeginTenant":
		return opBegin
	case "End", "Drop":
		return opEnd
	case "Suspend":
		return opSuspend
	case "Resume":
		return opResume
	case "PushWorker":
		return opPush
	case "PopWorker":
		return opPop
	case "Charge", "ChargeBlamed", "ChargeWaitBlamed", "ChargeSteps", "Reclassify", "Refund":
		return opCharge
	}
	return opNone
}

// builtinTerminator recognizes panic: a path that panics is not required to
// close its brackets (the run is over).
func builtinTerminator(p *Package, call *ast.CallExpr) opKind {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return opNone
	}
	if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
		return opTerminate
	}
	return opNone
}

// funcTerminator recognizes the non-returning stdlib exits.
func funcTerminator(fn *types.Func) opKind {
	if fn.Pkg() == nil {
		return opNone
	}
	switch fn.Pkg().Path() {
	case "os":
		if fn.Name() == "Exit" {
			return opTerminate
		}
	case "log":
		if strings.HasPrefix(fn.Name(), "Fatal") || strings.HasPrefix(fn.Name(), "Panic") {
			return opTerminate
		}
	case "runtime":
		if fn.Name() == "Goexit" {
			return opTerminate
		}
	}
	return opNone
}

// declaresAttrSink reports whether the package defines the AttrSink type
// itself — its method bodies implement the protocol rather than follow it.
func declaresAttrSink(p *Package) bool {
	obj := p.Types.Scope().Lookup("AttrSink")
	_, ok := obj.(*types.TypeName)
	return ok
}

// bodyOps summarizes which bracket ops a body contains, not counting nested
// function literals (they are analyzed as functions of their own).
type bodyOps struct {
	bracket bool // any Begin/End/Suspend/Resume/Push/Pop
	opener  bool // any Begin/BeginTenant/Suspend/PushWorker
	begin   bool // any Begin/BeginTenant
}

func scanOps(p *Package, body *ast.BlockStmt) bodyOps {
	var ops bodyOps
	ast.Inspect(body, func(nd ast.Node) bool {
		if _, isLit := nd.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch attrSinkOp(p, call) {
		case opBegin:
			ops.bracket, ops.opener, ops.begin = true, true, true
		case opSuspend, opPush:
			ops.bracket, ops.opener = true, true
		case opEnd, opResume, opPop:
			ops.bracket = true
		}
		return true
	})
	return ops
}

// checkPairing runs the path analysis over every sim-core function (and
// function literal) that participates in the bracket protocol. Functions
// containing only charges are skipped: they charge inside a bracket their
// caller opened, which is the protocol working as designed.
func checkPairing(p *Package, rep *reporter) {
	if !isSimCore(p.Path) || declaresAttrSink(p) {
		return
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			pairBody(p, rep, fd.Body)
			// Nested literals with openers are their own protocol scopes. A
			// closer-only literal is a deferred/callback fragment of the
			// enclosing protocol and is covered there (via defer effects).
			ast.Inspect(fd.Body, func(nd ast.Node) bool {
				if fl, ok := nd.(*ast.FuncLit); ok {
					if scanOps(p, fl.Body).opener {
						pairBody(p, rep, fl.Body)
					}
				}
				return true
			})
		}
	}
}

func pairBody(p *Package, rep *reporter, body *ast.BlockStmt) {
	ops := scanOps(p, body)
	if !ops.bracket {
		return
	}
	e := &pengine{
		pkg:         p,
		classify:    func(c *ast.CallExpr) opKind { return attrSinkOp(p, c) },
		checkCharge: ops.begin,
	}
	out := e.run(body)
	e.checkExit(body.Rbrace, out)
	e.flush(rep)
}
