package analysis

import (
	"go/ast"
)

// PoolPair enforces the scratch-pool contract of internal/mat: every
// matrix obtained from mat.GetScratch inside a function must be released
// with mat.PutScratch in that same function (directly or in a defer), and
// scratch must never escape through a return — escaping buffers belong to
// mat.New. A Get with no Put leaks the pool's cache warmth; an escaping
// Get poisons a caller that holds the matrix across someone else's Put.
//
// The check is per-function and name-based: it does not track scratch
// handed to other functions for release (annotate such hand-offs with
// //qmc:allow poolpair and a justification).
// poolpair diagnostic formats.
const (
	msgPoolUnbound = "mat.GetScratch result is not bound to a variable, so it can never be returned with PutScratch"
	msgPoolEscape  = "scratch matrix %s escapes via return; allocate escaping buffers with mat.New"
	msgPoolNoPut   = "scratch matrix %s from mat.GetScratch has no mat.PutScratch in this function"
)

var PoolPair = &Analyzer{
	Name: "poolpair",
	Doc:  "every mat.GetScratch needs a mat.PutScratch on the same function's paths",
	Messages: []string{
		msgPoolUnbound,
		msgPoolEscape,
		msgPoolNoPut,
	},
	Run: runPoolPair,
}

func runPoolPair(pass *Pass) error {
	pass.Funcs(func(fd *ast.FuncDecl) { checkPoolPairs(pass, fd) })
	return nil
}

func checkPoolPairs(pass *Pass, fd *ast.FuncDecl) {
	type scratch struct {
		get *ast.CallExpr
		put bool
	}
	gets := make(map[string]*scratch) // var name -> state
	var returned []string

	isMatCall := func(call *ast.CallExpr, name string) bool {
		if path, sel := pass.pkgSelector(call.Fun); path == pkgMat && sel == name {
			return true
		}
		// Inside package mat itself the calls are unqualified.
		if id, ok := call.Fun.(*ast.Ident); ok && pass.PkgPath == pkgMat && id.Name == name {
			return true
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isMatCall(call, "GetScratch") || i >= len(n.Lhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					gets[id.Name] = &scratch{get: call}
				} else {
					pass.Reportf(call.Pos(), msgPoolUnbound)
				}
			}
		case *ast.CallExpr:
			if isMatCall(n, "PutScratch") && len(n.Args) == 1 {
				if id, ok := n.Args[0].(*ast.Ident); ok {
					if s := gets[id.Name]; s != nil {
						s.put = true
					}
				}
			}
			// A bare Get used directly as an argument or statement leaks.
			if isMatCall(n, "GetScratch") {
				if !isAssignedCall(fd.Body, n) {
					pass.Reportf(n.Pos(), msgPoolUnbound)
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				collectIdents(res, &returned)
			}
		}
		return true
	})

	for name, s := range gets {
		for _, r := range returned {
			if r == name {
				pass.Reportf(s.get.Pos(), msgPoolEscape, name)
			}
		}
		if !s.put {
			pass.Reportf(s.get.Pos(), msgPoolNoPut, name)
		}
	}
}

// isAssignedCall reports whether call is the direct RHS of an assignment
// inside body.
func isAssignedCall(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, rhs := range as.Rhs {
				if rhs == call {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// collectIdents appends every identifier appearing in e to out.
func collectIdents(e ast.Expr, out *[]string) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			*out = append(*out, id.Name)
		}
		return true
	})
}
