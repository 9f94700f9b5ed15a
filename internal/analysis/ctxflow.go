package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxflow diagnostic formats. Declared as constants so the fixture suite
// can demand one // want comment per message (see Analyzer.Messages).
const (
	msgCtxLeak = "cancel func %q from %s is never deferred, called, or stored; the context leaks until process exit — add `defer %s()`"

	msgCtxDiscard = "%s discards its cancel func; bind it and defer it or the context leaks"

	msgCtxErrAfterCancel = "%s.Err() runs after %s() and is therefore non-nil unconditionally, misclassifying every outcome as cancellation; capture the classification before canceling"

	msgCtxIsAfterCancel = "errors.Is against context.%s runs after %s() already canceled the context it classifies; move the classification above the cancel call"
)

// ctxCancelCtors maps qualified constructor names to the functions whose
// second result is a context.CancelFunc that must not be lost.
var ctxCancelCtors = map[string]bool{
	"context.WithCancel":        true,
	"context.WithCancelCause":   true,
	"context.WithTimeout":       true,
	"context.WithTimeoutCause":  true,
	"context.WithDeadline":      true,
	"context.WithDeadlineCause": true,
	"os/signal.NotifyContext":   true,
}

// CtxFlow enforces the two cancellation contracts the PR 9 review paid
// for the hard way. First, a context.CancelFunc must be deferred, called,
// or stored (a struct field, an argument, a return value) — dropping it
// leaks the context's timer and goroutine until process exit. Second, the
// misclassification bug class: once cancel() has run, ctx.Err() is
// non-nil unconditionally, so any `ctx.Err() != nil` or
// errors.Is(err, context.Canceled) classification sequenced after the
// cancel call reports "canceled" for every outcome, including success.
// The classification must be captured before canceling.
//
// The ordering check is lexical within one function body: a cancel that
// only runs on some paths may produce a false positive, which is what
// //qmc:allow ctxflow -- <why> is for.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "cancel funcs must be deferred/called/stored; no ctx.Err()/errors.Is(Canceled) classification after cancel()",
	Messages: []string{
		msgCtxLeak,
		msgCtxDiscard,
		msgCtxErrAfterCancel,
		msgCtxIsAfterCancel,
	},
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	pass.Funcs(func(fd *ast.FuncDecl) { checkCtxFlow(pass, fd) })
	return nil
}

// ctxBinding is one `ctx, cancel := context.WithX(...)` pair in a function.
type ctxBinding struct {
	ctor      string // qualified constructor, e.g. "context.WithCancel"
	assign    *ast.AssignStmt
	ctxObj    types.Object // nil when the context is discarded
	cancelObj types.Object

	deferred bool
	escaped  bool
	calls    []*ast.CallExpr // plain (non-deferred) cancel() calls
}

func checkCtxFlow(pass *Pass, fd *ast.FuncDecl) {
	var bindings []*ctxBinding

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		path, sel := pass.pkgSelector(call.Fun)
		ctor := path + "." + sel
		if !ctxCancelCtors[ctor] {
			return true
		}
		ctxID, _ := as.Lhs[0].(*ast.Ident)
		cancelID, _ := as.Lhs[1].(*ast.Ident)
		if cancelID == nil {
			return true
		}
		if cancelID.Name == "_" {
			pass.Reportf(as.Pos(), msgCtxDiscard, ctor)
			return true
		}
		b := &ctxBinding{ctor: ctor, assign: as, cancelObj: pass.Info.ObjectOf(cancelID)}
		if ctxID != nil && ctxID.Name != "_" {
			b.ctxObj = pass.Info.ObjectOf(ctxID)
		}
		bindings = append(bindings, b)
		return true
	})
	if len(bindings) == 0 {
		return
	}

	// Classify every use of each cancel func: deferred, plainly called, or
	// escaped (stored/passed/returned). Idents acting as the Fun of a call
	// are recognized first so any remaining use counts as an escape.
	deferredIdents := map[*ast.Ident]bool{}
	callFun := map[*ast.Ident]*ast.CallExpr{}
	blankUse := map[*ast.Ident]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// `_ = cancel` silences the compiler but runs nothing: such a
			// use is neither a call nor an escape.
			allBlank := len(n.Lhs) > 0
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
					allBlank = false
				}
			}
			if allBlank {
				for _, rhs := range n.Rhs {
					if id, ok := rhs.(*ast.Ident); ok {
						blankUse[id] = true
					}
				}
			}
		case *ast.DeferStmt:
			if id, ok := n.Call.Fun.(*ast.Ident); ok {
				deferredIdents[id] = true
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				// defer func() { ...; cancel(); ... }() defers the cancel too.
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok {
						if id, ok := c.Fun.(*ast.Ident); ok {
							deferredIdents[id] = true
						}
					}
					return true
				})
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				callFun[id] = n
			}
		}
		return true
	})
	byObj := map[types.Object]*ctxBinding{}
	defIdent := map[*ast.Ident]bool{}
	for _, b := range bindings {
		byObj[b.cancelObj] = b
		for _, lhs := range b.assign.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				defIdent[id] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || defIdent[id] {
			return true
		}
		b := byObj[pass.Info.ObjectOf(id)]
		if b == nil {
			return true
		}
		switch {
		case blankUse[id]:
			// ignored: see above
		case deferredIdents[id]:
			b.deferred = true
		case callFun[id] != nil:
			b.calls = append(b.calls, callFun[id])
		default:
			b.escaped = true
		}
		return true
	})

	for _, b := range bindings {
		if !b.deferred && !b.escaped && len(b.calls) == 0 {
			pass.Reportf(b.assign.Pos(), msgCtxLeak, b.cancelObj.Name(), b.ctor, b.cancelObj.Name())
			continue
		}
		if len(b.calls) == 0 {
			continue
		}
		// Inspect walks in source order, so calls[0] is the first cancel.
		checkAfterCancel(pass, fd, b, b.calls[0].Pos())
	}
}

// checkAfterCancel reports classification expressions lexically after the
// first plain cancel() call of binding b.
func checkAfterCancel(pass *Pass, fd *ast.FuncDecl, b *ctxBinding, firstCancel token.Pos) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= firstCancel {
			return true
		}
		// ctx.Err() on the canceled context.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Err" && len(call.Args) == 0 {
			if id, ok := sel.X.(*ast.Ident); ok && b.ctxObj != nil && pass.Info.ObjectOf(id) == b.ctxObj {
				pass.Reportf(call.Pos(), msgCtxErrAfterCancel, b.ctxObj.Name(), b.cancelObj.Name())
			}
			return true
		}
		// errors.Is(err, context.Canceled / context.DeadlineExceeded).
		if path, name := pass.pkgSelector(call.Fun); path == "errors" && name == "Is" && len(call.Args) == 2 {
			if tpath, tname := pass.pkgSelector(call.Args[1]); tpath == "context" &&
				(tname == "Canceled" || tname == "DeadlineExceeded") {
				pass.Reportf(call.Pos(), msgCtxIsAfterCancel, tname, b.cancelObj.Name())
			}
		}
		return true
	})
}
