package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// guardedfield diagnostic formats.
const (
	msgGuardAccess = "%s.%s is guarded by %q (//qmc:guarded) but %s neither locks it nor declares //qmc:locked(%s)"

	msgGuardNoMutex = "//qmc:guarded(%s) on %s.%s names no sync.Mutex/sync.RWMutex field of %s"
)

var (
	guardedRE = regexp.MustCompile(`^//qmc:guarded\(([A-Za-z_]\w*)\)(\s.*)?$`)
	lockedRE  = regexp.MustCompile(`^//qmc:locked\(([A-Za-z_]\w*)\)(\s.*)?$`)
)

// GuardedField checks the repo's documented-by-comment lock discipline
// mechanically. A struct field annotated //qmc:guarded(mu) may only be
// read or written inside functions that either lock the owning struct's
// mutex (`x.mu.Lock()` / `x.mu.RLock()` somewhere in the body, with x of
// the owning type) or carry a //qmc:locked(mu) doc directive — the
// machine-readable form of the tree's "Caller holds s.mu" comments.
//
// The check is lexical, not path-sensitive: holding the lock on every
// path is the author's contract; the analyzer enforces that the contract
// is at least stated and the mutex is at least touched. Composite
// literals are naturally exempt (a struct under construction is not yet
// shared), which is why constructors build locals and assign whole
// structs.
var GuardedField = &Analyzer{
	Name: "guardedfield",
	Doc:  "//qmc:guarded(mu) fields are only touched under the named mutex or a //qmc:locked(mu) contract",
	Messages: []string{
		msgGuardAccess,
		msgGuardNoMutex,
	},
	Run: runGuardedField,
}

// guardInfo describes one annotated field.
type guardInfo struct {
	mutex      string
	structName string
	field      string
}

func runGuardedField(pass *Pass) error {
	guarded := collectGuardedFields(pass)
	if len(guarded) == 0 {
		return nil
	}
	pass.Funcs(func(fd *ast.FuncDecl) { checkGuardedAccesses(pass, fd, guarded) })
	return nil
}

// collectGuardedFields maps each annotated field object to its guard
// contract, validating that the named mutex exists in the same struct.
func collectGuardedFields(pass *Pass) map[types.Object]guardInfo {
	guarded := map[types.Object]guardInfo{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu, ok := fieldGuardDirective(field)
				if !ok {
					continue
				}
				if !structHasMutex(pass, st, mu) {
					name := "(embedded)"
					if len(field.Names) > 0 {
						name = field.Names[0].Name
					}
					pass.Reportf(field.Pos(), msgGuardNoMutex, mu, ts.Name.Name, name, ts.Name.Name)
					continue
				}
				for _, name := range field.Names {
					guarded[pass.Info.Defs[name]] = guardInfo{mutex: mu, structName: ts.Name.Name, field: name.Name}
				}
			}
			return true
		})
	}
	return guarded
}

// fieldGuardDirective extracts the //qmc:guarded(mu) annotation from a
// field's doc or trailing comment.
func fieldGuardDirective(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := guardedRE.FindStringSubmatch(c.Text); m != nil {
				return m[1], true
			}
		}
	}
	return "", false
}

// structHasMutex reports whether the struct declares a field named mu of
// type sync.Mutex or sync.RWMutex.
func structHasMutex(pass *Pass, st *ast.StructType, mu string) bool {
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.Name != mu {
				continue
			}
			if s := pass.Info.Defs[name].Type().String(); s == "sync.Mutex" || s == "sync.RWMutex" {
				return true
			}
		}
	}
	return false
}

// checkGuardedAccesses flags selector accesses to guarded fields inside
// fd unless fd locks the owning mutex or declares //qmc:locked.
func checkGuardedAccesses(pass *Pass, fd *ast.FuncDecl, guarded map[types.Object]guardInfo) {
	lockedNames := lockedDirectives(fd.Doc)
	var lockKeys map[string]bool // "Struct.mu" pairs locked in this body
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		g, ok := guarded[selection.Obj()]
		if !ok {
			return true
		}
		if lockedNames[g.mutex] {
			return true
		}
		if lockKeys == nil {
			lockKeys = collectLockCalls(pass, fd.Body)
		}
		if lockKeys[g.structName+"."+g.mutex] {
			return true
		}
		pass.Reportf(sel.Pos(), msgGuardAccess, g.structName, g.field, g.mutex, fd.Name.Name, g.mutex)
		return true
	})
}

// lockedDirectives parses every //qmc:locked(mu) line of a doc comment.
func lockedDirectives(doc *ast.CommentGroup) map[string]bool {
	out := map[string]bool{}
	if doc == nil {
		return out
	}
	for _, c := range doc.List {
		if m := lockedRE.FindStringSubmatch(c.Text); m != nil {
			out[m[1]] = true
		}
	}
	return out
}

// collectLockCalls finds every `x.mu.Lock()` / `x.mu.RLock()` in the body
// and records the owning named type and mutex field as "Type.mu".
func collectLockCalls(pass *Pass, body *ast.BlockStmt) map[string]bool {
	keys := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		lockSel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (lockSel.Sel.Name != "Lock" && lockSel.Sel.Name != "RLock") {
			return true
		}
		muSel, ok := lockSel.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		owner := namedTypeName(pass, muSel.X)
		if owner == "" {
			return true
		}
		keys[owner+"."+muSel.Sel.Name] = true
		return true
	})
	return keys
}

// namedTypeName resolves the (pointer-dereferenced) named type of an
// expression, or "" (e is a package qualifier, or its type is unnamed).
func namedTypeName(pass *Pass, e ast.Expr) string {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
