package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrCheck flags dropped errors in the cmd/* front ends and the service
// layer: an expression statement whose call returns an error (alone or in a
// tuple) silently discards it. The commands are where JSON benchmark
// documents, figures, checkpoints and profiles hit the filesystem, and
// internal/service is where job checkpoints and HTTP documents do — exactly
// the writes whose failures must reach the exit code (or the job error) to
// be trustworthy. fmt's terminal printing family is exempt (its error is
// about a closed stdout and is conventionally ignored).
// errcheck diagnostic format.
const msgErrDropped = "result of %s includes an error that is discarded; check it (or assign to _ to make the drop explicit)"

var ErrCheck = &Analyzer{
	Name: "errcheck",
	Doc:  "cmd/* and internal/service must not drop returned errors",
	Messages: []string{
		msgErrDropped,
	},
	Run: runErrCheck,
}

// errCheckedPkgs are the package-path prefixes ErrCheck applies to.
var errCheckedPkgs = []string{
	"questgo/cmd/",
	"questgo/internal/service",
}

func runErrCheck(pass *Pass) error {
	checked := false
	for _, prefix := range errCheckedPkgs {
		if strings.HasPrefix(pass.PkgPath, prefix) {
			checked = true
			break
		}
	}
	if !checked {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = n.Call
			case *ast.GoStmt:
				call = n.Call
			}
			if call == nil {
				return true
			}
			if path, _ := pass.pkgSelector(call.Fun); path == "fmt" {
				return true
			}
			if builderWrite(pass, call) {
				return true
			}
			if returnsError(pass, call) {
				pass.Reportf(call.Pos(), msgErrDropped, callName(call))
			}
			return true
		})
	}
	return nil
}

// builderWrite reports whether call is a method on strings.Builder or
// bytes.Buffer, whose Write* methods are documented to always return a nil
// error (they exist only to satisfy io interfaces).
func builderWrite(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := pass.Info.Selections[sel]
	if !ok {
		return false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

func returnsError(pass *Pass, call *ast.CallExpr) bool {
	isErr := func(t types.Type) bool {
		named, ok := t.(*types.Named)
		return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
	}
	switch t := pass.Info.TypeOf(call).(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErr(t.At(i).Type()) {
				return true
			}
		}
	default:
		return isErr(t)
	}
	return false
}

func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
