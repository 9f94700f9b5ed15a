package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// mapdet diagnostic format.
const (
	msgMapRange = "range over %s: map iteration order is randomized per run, and this package feeds deterministic wire/trajectory output; iterate a sorted key slice or a canonical index (or waive: //qmc:allow mapdet -- <why order cannot matter>)"
)

// mapdetExempt lists the questgo packages mapdet skips entirely. The
// analysis package itself is bookkeeping for a developer tool: its maps
// never reach wire output, checkpoints, or trajectory state, and the
// linter sorts its own diagnostics before printing.
var mapdetExempt = map[string]bool{
	"questgo/internal/analysis": true,
}

// MapDet bans ranging over maps in the deterministic packages. Map
// iteration order is randomized per process, so a map range on any path
// that feeds wire output, Config.Hash, checkpoint encoding, event
// streams, or trajectory state is the canonical silent determinism
// killer: the run "works" and two bitwise-identical submissions produce
// differently-ordered documents. Two safe idioms are recognized and stay
// silent — copying one map into another (order irrelevant by
// construction) and collecting keys that are sorted before use. Anything
// else needs a sorted-key loop or a justified waiver.
var MapDet = &Analyzer{
	Name: "mapdet",
	Doc:  "no range over a map in deterministic packages; iterate sorted keys or a canonical index",
	Messages: []string{
		msgMapRange,
	},
	Run: runMapDet,
}

func runMapDet(pass *Pass) error {
	if mapdetExempt[pass.PkgPath] {
		return nil
	}
	if !strings.HasPrefix(pass.PkgPath, "questgo") && !strings.HasPrefix(pass.PkgPath, "fixture/mapdet") {
		return nil
	}
	pass.Funcs(func(fd *ast.FuncDecl) { checkMapRanges(pass, fd) })
	return nil
}

func checkMapRanges(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !isMapType(pass, rs.X) {
			return true
		}
		if isMapCopyLoop(rs) || isCollectThenSort(pass, fd, rs) {
			return true
		}
		pass.Reportf(rs.Pos(), msgMapRange, pass.Info.TypeOf(rs.X))
		return true
	})
}

func isMapType(pass *Pass, e ast.Expr) bool {
	_, isMap := pass.Info.TypeOf(e).Underlying().(*types.Map)
	return isMap
}

// isMapCopyLoop recognizes `for k, v := range src { dst[k] = v ... }`
// bodies: every statement assigns through an index expression, so the
// visitation order cannot be observed.
func isMapCopyLoop(rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	for _, stmt := range rs.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok {
			return false
		}
		for _, lhs := range as.Lhs {
			if _, ok := lhs.(*ast.IndexExpr); !ok {
				return false
			}
		}
	}
	return true
}

// isCollectThenSort recognizes the sorted-keys idiom: the loop body only
// appends to local slices (possibly behind an if), and every such slice
// is passed to a sort.* / slices.Sort* call after the loop in the same
// function.
func isCollectThenSort(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) bool {
	targets := map[types.Object]bool{}
	if !collectAppendTargets(pass, rs.Body.List, targets) || len(targets) == 0 {
		return false
	}
	sorted := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() || len(call.Args) == 0 {
			return true
		}
		if path, _ := pass.pkgSelector(call.Fun); path != "sort" && path != "slices" {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok {
			sorted[pass.Info.ObjectOf(id)] = true
		}
		return true
	})
	for obj := range targets {
		if !sorted[obj] {
			return false
		}
	}
	return true
}

// collectAppendTargets walks loop-body statements accepting only
// `x = append(x, ...)` assignments and if-statements wrapping more of the
// same; the append targets land in out.
func collectAppendTargets(pass *Pass, stmts []ast.Stmt, out map[types.Object]bool) bool {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				return false
			}
			id, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok {
				return false
			}
			fun, ok := call.Fun.(*ast.Ident)
			if !ok || !pass.isBuiltin(fun, "append") {
				return false
			}
			out[pass.Info.ObjectOf(id)] = true
		case *ast.IfStmt:
			if s.Else != nil || !collectAppendTargets(pass, s.Body.List, out) {
				return false
			}
		default:
			return false
		}
	}
	return true
}
