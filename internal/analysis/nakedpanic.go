package analysis

import (
	"go/ast"
	"regexp"
	"strconv"
)

// nakedPanicPackages are the kernel layers whose panics guard shape and
// bounds contracts.
var nakedPanicPackages = map[string]bool{
	pkgBlas:   true,
	pkgLapack: true,
	pkgGreens: true,
	pkgUpdate: true,
	pkgGPU:    true,
	pkgGPUHW:  true,
	pkgMat:    true,
}

// shapeComplaint matches panic messages that complain about a shape or
// bounds violation without saying which shapes collided.
var shapeComplaint = regexp.MustCompile(`(?i)(mismatch|dimension|length|size|out of range|expects|too short|must divide)`)

// NakedPanic requires kernel panics about shapes to carry the offending
// dimensions. A wrapped N=1024 Green's function pipeline dies ~10 call
// frames below the sweep that misconfigured it; "dimension mismatch" with
// no numbers forces a debugger session that fmt.Sprintf("%dx%d vs %dx%d",
// ...) would have answered from the log line. The formatting cost is
// irrelevant: panic arguments only evaluate on the failure path (hotalloc
// exempts them for the same reason).
// nakedpanic diagnostic format.
const msgNakedPanic = "shape panic %q carries no dimensions; use fmt.Sprintf with the offending sizes"

var NakedPanic = &Analyzer{
	Name: "nakedpanic",
	Doc:  "kernel shape panics must carry the offending dimensions",
	Messages: []string{
		msgNakedPanic,
	},
	Run: runNakedPanic,
}

func runNakedPanic(pass *Pass) error {
	if !nakedPanicPackages[pass.PkgPath] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || !pass.isBuiltin(id, "panic") {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok {
				return true // fmt.Sprintf / error value: carries context
			}
			msg, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if shapeComplaint.MatchString(msg) {
				pass.Reportf(call.Pos(), msgNakedPanic, msg)
			}
			return true
		})
	}
	return nil
}
