package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goleak diagnostic formats.
const (
	msgGoLeakNoDrain = "goroutine has no visible drain path (no select, channel receive, channel range, or WaitGroup Done); wire it to a done/ctx channel or waive: //qmc:allow goleak -- <why it terminates>"

	msgGoLeakOpaque = "goroutine body is not visible from this package, so its termination cannot be checked; waive with //qmc:allow goleak -- <why it terminates>"
)

// GoLeak requires every go statement in non-test code to show a drain
// path: the spawned body (or a same-package callee it immediately invokes)
// must select, receive from or range over a channel, or call a WaitGroup's
// Done — the three shapes by which the repo's goroutines are collected.
// Everything else is a potential leak: a daemon accumulating one stuck
// goroutine per job eventually runs the box out of memory long after the
// code that spawned it has "worked" for months.
//
// The check is shallow by design (one level of same-package callee
// resolution, no path analysis); a goroutine that provably terminates for
// reasons the analyzer cannot see carries a justified waiver instead.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "every go statement needs a visible drain path (select, channel receive/range, WaitGroup Done) or a justified waiver",
	Messages: []string{
		msgGoLeakNoDrain,
		msgGoLeakOpaque,
	},
	Run: runGoLeak,
}

func runGoLeak(pass *Pass) error {
	// Index this package's function declarations so `go worker()` can be
	// resolved to its body.
	decls := map[types.Object]*ast.FuncDecl{}
	pass.Funcs(func(fd *ast.FuncDecl) { decls[pass.Info.Defs[fd.Name]] = fd })
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := goBody(pass, decls, g.Call)
			switch {
			case body == nil:
				pass.Reportf(g.Pos(), msgGoLeakOpaque)
			case !hasDrainPath(pass, decls, body, 1):
				pass.Reportf(g.Pos(), msgGoLeakNoDrain)
			}
			return true
		})
	}
	return nil
}

// goBody resolves the statement body a go statement will run: a function
// literal's own body, or the declaration of a same-package named function
// or method. nil when the callee is external or dynamic.
func goBody(pass *Pass, decls map[types.Object]*ast.FuncDecl, call *ast.CallExpr) *ast.BlockStmt {
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fd := decls[pass.Info.ObjectOf(fun)]; fd != nil {
			return fd.Body
		}
	case *ast.SelectorExpr:
		if fd := decls[pass.Info.ObjectOf(fun.Sel)]; fd != nil {
			return fd.Body
		}
	}
	return nil
}

// hasDrainPath reports whether the body contains one of the recognized
// collection shapes. It follows same-package calls one level deep so
// `go func() { defer wg.Done(); s.worker() }()` and `go worker()` both
// resolve.
func hasDrainPath(pass *Pass, decls map[types.Object]*ast.FuncDecl, body *ast.BlockStmt, depth int) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if isChanType(pass, n.X) {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && len(n.Args) == 0 {
				// wg.Done() (ctx.Done() is a receive and matches above).
				found = true
				return false
			}
			if depth > 0 {
				var callee types.Object
				switch fun := n.Fun.(type) {
				case *ast.Ident:
					callee = pass.Info.ObjectOf(fun)
				case *ast.SelectorExpr:
					callee = pass.Info.ObjectOf(fun.Sel)
				}
				if fd := decls[callee]; fd != nil && hasDrainPath(pass, decls, fd.Body, depth-1) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func isChanType(pass *Pass, e ast.Expr) bool {
	_, isChan := pass.Info.TypeOf(e).Underlying().(*types.Chan)
	return isChan
}
