package analysis

import (
	"go/ast"
	"go/types"
)

// Module-internal package paths the analyzers key on.
const (
	pkgBlas   = "questgo/internal/blas"
	pkgLapack = "questgo/internal/lapack"
	pkgGreens = "questgo/internal/greens"
	pkgUpdate = "questgo/internal/update"
	pkgGPU    = "questgo/internal/gpu"
	pkgGPUHW  = "questgo/internal/gpu/hw"
	pkgMat    = "questgo/internal/mat"
	pkgRng    = "questgo/internal/rng"
)

// autoHotPackages are checked in full: every function is treated as if it
// carried //qmc:hot. internal/blas is the innermost kernel layer — nothing
// in it is ever off the hot path.
var autoHotPackages = map[string]bool{
	pkgBlas: true,
}

// hotalloc diagnostic formats.
const (
	msgHotBuiltin     = "hot path calls %s (allocates); use the mat scratch pools or a pre-bound buffer"
	msgHotFmt         = "hot path calls fmt.%s (allocates and reflects); move formatting off the hot path"
	msgHotSliceLit    = "hot path builds a slice literal (allocates); use the mat scratch pools or a pre-bound buffer"
	msgHotMapLit      = "hot path builds a map literal (allocates)"
	msgHotClosure     = "hot path creates a closure (allocates); pre-bind it at construction time"
	msgHotGoroutine   = "hot path spawns a goroutine; route fork/join through the persistent parallel pool"
	msgHotMethodValue = "hot path takes a method value of %s (allocates); pre-bind it at construction time"
)

// HotAlloc rejects per-call allocations in //qmc:hot functions: make,
// append, new, slice/map composite literals, func literals (closure
// capture), method values, go statements and fmt calls. Hot-path buffers
// must come from the mat scratch pools (GetScratch/PutScratch) or be
// pre-bound at construction time, which is what keeps the delayed-update
// and wrapping loops at level-3 throughput. Panic arguments are exempt:
// they only evaluate on the failure path, so fmt.Sprintf diagnostics there
// are free.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocations in //qmc:hot functions and the blas kernel package",
	Messages: []string{
		msgHotBuiltin,
		msgHotFmt,
		msgHotSliceLit,
		msgHotMapLit,
		msgHotClosure,
		msgHotGoroutine,
		msgHotMethodValue,
	},
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	pass.Funcs(func(fd *ast.FuncDecl) {
		if hasDirective(fd.Doc, "//qmc:hot") || autoHotPackages[pass.PkgPath] {
			hotWalk(pass, fd.Body, 0)
		}
	})
	return nil
}

// hotWalk traverses a hot function body tracking loop depth (a deferred
// closure is only alloc-free when the defer is not in a loop).
func hotWalk(pass *Pass, n ast.Node, loopDepth int) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.ForStmt, *ast.RangeStmt:
		loopDepth++
	case *ast.DeferStmt:
		// defer func() { ... }() outside a loop uses an open-coded defer:
		// the closure does not escape, so scratch-release blocks stay legal.
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok && loopDepth == 0 {
			for _, arg := range n.Call.Args {
				hotWalk(pass, arg, loopDepth)
			}
			hotWalk(pass, lit.Body, loopDepth)
			return
		}
	case *ast.CallExpr:
		if id, ok := n.Fun.(*ast.Ident); ok {
			switch {
			case pass.isBuiltin(id, "panic"):
				// Failure path: diagnostics may format freely.
				return
			case pass.isBuiltin(id, "make"), pass.isBuiltin(id, "append"), pass.isBuiltin(id, "new"):
				pass.Reportf(n.Pos(), msgHotBuiltin, id.Name)
			}
		}
		if path, name := pass.pkgSelector(n.Fun); path == "fmt" {
			pass.Reportf(n.Pos(), msgHotFmt, name)
		}
		// A called method is not a method value: step over the callee
		// selector to its receiver expression.
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
			hotWalk(pass, sel.X, loopDepth)
			for _, arg := range n.Args {
				hotWalk(pass, arg, loopDepth)
			}
			return
		}
	case *ast.CompositeLit:
		switch n.Type.(type) {
		case *ast.ArrayType:
			if n.Type.(*ast.ArrayType).Len == nil {
				pass.Reportf(n.Pos(), msgHotSliceLit)
			}
		case *ast.MapType:
			pass.Reportf(n.Pos(), msgHotMapLit)
		}
	case *ast.FuncLit:
		pass.Reportf(n.Pos(), msgHotClosure)
		return // the body is not on this function's hot path
	case *ast.GoStmt:
		pass.Reportf(n.Pos(), msgHotGoroutine)
	case *ast.SelectorExpr:
		// A method value (m.F used as a value, not called) allocates its
		// bound receiver.
		if sel, ok := pass.Info.Selections[n]; ok && sel.Kind() == types.MethodVal {
			pass.Reportf(n.Pos(), msgHotMethodValue, n.Sel.Name)
		}
	}
	for _, c := range childNodes(n) {
		hotWalk(pass, c, loopDepth)
	}
}

// childNodes returns the direct children of n, in source order.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
