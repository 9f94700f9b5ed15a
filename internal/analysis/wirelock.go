package analysis

import (
	"embed"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// wirelock diagnostic formats.
const (
	msgWireManifestMissing = "wire manifest %s for %s is missing; generate it with `go run ./cmd/qmclint -wiregen ./...`"

	msgWireVersionDrift = "wire version constant %s = %s does not match the locked manifest value %s; bump the constant deliberately and regenerate manifests with `qmclint -wiregen`"

	msgWireFieldsDrift = "wire struct %s diverges from its locked manifest (%s); bump %s (minor: additive, major: rename/retype/removal) and regenerate with `qmclint -wiregen`"

	msgWireStructGone = "wire struct %s is locked in manifest %s but no longer exists in this package; that is a major schema change — bump %s and regenerate with `qmclint -wiregen`"

	msgWireStructNew = "wire struct %s is reachable from a locked wire document but absent from manifest %s; bump %s and regenerate with `qmclint -wiregen`"
)

// wireManifests embeds the golden field/JSON-tag manifests. The analyzer
// compares the live struct definitions against them, so any field change
// must go through `qmclint -wiregen` — which refuses to regenerate unless
// the governing schema-version constant was bumped first.
//
//go:embed testdata/wire/*.manifest
var wireManifests embed.FS

// wireRoot is one locked document root: the struct (plus everything
// reachable from it within the package) and the version constant whose
// bump authorizes changing it.
type wireRoot struct {
	TypeName     string
	VersionConst string
}

// wireDoc is a package's wirelock registration.
type wireDoc struct {
	Manifest string
	Roots    []wireRoot
}

// wireRegistry lists every versioned wire document in the tree. Each
// entry locks the named roots and their same-package struct closure
// against testdata/wire/<Manifest>.
var wireRegistry = map[string]wireDoc{
	"questgo/internal/core": {
		Manifest: "core.manifest",
		Roots: []wireRoot{
			{"Config", "ConfigSchemaVersion"},
			{"resultsJSON", "ResultsSchemaVersion"},
		},
	},
	"questgo/internal/obs": {
		Manifest: "obs.manifest",
		Roots:    []wireRoot{{"Metrics", "MetricsSchemaVersion"}},
	},
	"questgo/internal/benchutil": {
		Manifest: "benchutil.manifest",
		Roots:    []wireRoot{{"Record", "RecordSchemaVersion"}},
	},
	"questgo/internal/service": {
		Manifest: "service.manifest",
		Roots: []wireRoot{
			{"JobRequest", "JobSchemaVersion"},
			{"JobStatus", "JobSchemaVersion"},
			{"JobResult", "JobSchemaVersion"},
			{"Event", "JobSchemaVersion"},
			{"Estimate", "JobSchemaVersion"},
			{"Stats", "JobSchemaVersion"},
			{"errorDoc", "JobSchemaVersion"},
		},
	},
	// Fixture entries for the analysistest harness.
	"fixture/wirelock": {
		Manifest: "wirelock_fixture.manifest",
		Roots:    []wireRoot{{"Doc", "FixtureSchemaVersion"}},
	},
	"fixture/wirelock_missing": {
		Manifest: "wirelock_missing.manifest",
		Roots:    []wireRoot{{"Doc", "FixtureSchemaVersion"}},
	},
}

// WireLock locks the wire-format structs against checked-in golden
// manifests. The JSON documents these structs encode are consumed by
// clients, checkpoints, benchmark trend lines, and the result cache —
// renaming a field or reordering a struct silently breaks wire
// compatibility and the canonical (hash-feeding) encodings. Any change
// therefore has to be deliberate: bump the governing schema-version
// constant, regenerate the manifest with `qmclint -wiregen`, and the diff
// shows reviewers exactly which fields moved.
var WireLock = &Analyzer{
	Name: "wirelock",
	Doc:  "versioned wire structs must match their golden manifests; field drift requires a schema-version bump + -wiregen",
	Wave: 2,
	Messages: []string{
		msgWireManifestMissing,
		msgWireVersionDrift,
		msgWireFieldsDrift,
		msgWireStructGone,
		msgWireStructNew,
	},
	Run: runWireLock,
}

func runWireLock(pass *Pass) error {
	doc, ok := wireRegistry[pass.PkgPath]
	if !ok || pass.Pkg == nil {
		return nil
	}
	current, structOrder := wireSnapshot(pass.Pkg, doc)
	manifest, err := wireManifests.ReadFile("testdata/wire/" + doc.Manifest)
	if err != nil {
		pass.Reportf(pass.Files[0].Package, msgWireManifestMissing, doc.Manifest, pass.PkgPath)
		return nil
	}
	locked := parseWireManifest(string(manifest))

	// Version constants.
	for _, root := range doc.Roots {
		want, inManifest := locked.versions[root.VersionConst]
		if !inManifest {
			continue
		}
		got := wireConstValue(pass.Pkg, root.VersionConst)
		if got != want {
			pass.Reportf(wireConstPos(pass, root.VersionConst), msgWireVersionDrift, root.VersionConst, got, want)
		}
	}

	// Struct field sets, both directions.
	seen := map[string]bool{}
	for _, name := range structOrder {
		seen[name] = true
		vc := current.version[name]
		lockedFields, inManifest := locked.structs[name]
		if !inManifest {
			pass.Reportf(wireStructPos(pass, name), msgWireStructNew, name, doc.Manifest, vc)
			continue
		}
		if diff := diffFieldLines(lockedFields, current.structs[name]); diff != "" {
			pass.Reportf(wireStructPos(pass, name), msgWireFieldsDrift, name, diff, vc)
		}
	}
	for _, name := range locked.structOrder {
		if !seen[name] {
			vc := "the schema version"
			if len(doc.Roots) > 0 {
				vc = doc.Roots[0].VersionConst
			}
			pass.Reportf(pass.Files[0].Package, msgWireStructGone, name, doc.Manifest, vc)
		}
	}
	return nil
}

// wireSnapshot renders the live wire surface of a package: every root
// struct and its same-package struct closure, in deterministic
// encounter order.
type wireSurface struct {
	versions    map[string]string
	structs     map[string][]string
	version     map[string]string // struct -> governing version const
	structOrder []string
}

func wireSnapshot(pkg *types.Package, doc wireDoc) (wireSurface, []string) {
	s := wireSurface{
		versions: map[string]string{},
		structs:  map[string][]string{},
		version:  map[string]string{},
	}
	for _, root := range doc.Roots {
		s.versions[root.VersionConst] = wireConstValue(pkg, root.VersionConst)
	}
	qualify := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	var visit func(name, versionConst string)
	visit = func(name, versionConst string) {
		if _, done := s.structs[name]; done {
			return
		}
		obj := pkg.Scope().Lookup(name)
		if obj == nil {
			return
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			return
		}
		var lines []string
		var nested []string
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			line := fmt.Sprintf("\t%s %s", f.Name(), types.TypeString(f.Type(), qualify))
			if tag := st.Tag(i); tag != "" {
				line += " `" + tag + "`"
			}
			lines = append(lines, line)
			nested = append(nested, samePkgStructs(pkg, f.Type())...)
		}
		s.structs[name] = lines
		s.version[name] = versionConst
		s.structOrder = append(s.structOrder, name)
		for _, n := range nested {
			visit(n, versionConst)
		}
	}
	for _, root := range doc.Roots {
		visit(root.TypeName, root.VersionConst)
	}
	return s, s.structOrder
}

// samePkgStructs returns the names of named struct types from pkg
// reachable through one field type (descending through pointers, slices,
// arrays, and map keys/values).
func samePkgStructs(pkg *types.Package, t types.Type) []string {
	switch t := t.(type) {
	case *types.Pointer:
		return samePkgStructs(pkg, t.Elem())
	case *types.Slice:
		return samePkgStructs(pkg, t.Elem())
	case *types.Array:
		return samePkgStructs(pkg, t.Elem())
	case *types.Map:
		return append(samePkgStructs(pkg, t.Key()), samePkgStructs(pkg, t.Elem())...)
	case *types.Named:
		if t.Obj().Pkg() == pkg {
			if _, isStruct := t.Underlying().(*types.Struct); isStruct {
				return []string{t.Obj().Name()}
			}
		}
	}
	return nil
}

func wireConstValue(pkg *types.Package, name string) string {
	obj := pkg.Scope().Lookup(name)
	c, ok := obj.(*types.Const)
	if !ok {
		return "(missing)"
	}
	if c.Val().Kind() == constant.String {
		return fmt.Sprintf("%q", constant.StringVal(c.Val()))
	}
	return c.Val().String()
}

func wireConstPos(pass *Pass, name string) token.Pos {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, id := range vs.Names {
					if id.Name == name {
						return id.Pos()
					}
				}
			}
		}
	}
	return pass.Files[0].Package
}

func wireStructPos(pass *Pass, name string) token.Pos {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == name {
					return ts.Pos()
				}
			}
		}
	}
	return pass.Files[0].Package
}

// parsedManifest is the decoded golden file.
type parsedManifest struct {
	versions    map[string]string
	structs     map[string][]string
	structOrder []string
}

func parseWireManifest(text string) parsedManifest {
	m := parsedManifest{versions: map[string]string{}, structs: map[string][]string{}}
	var cur string
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "":
		case strings.HasPrefix(line, "version "):
			parts := strings.SplitN(strings.TrimPrefix(line, "version "), " ", 2)
			if len(parts) == 2 {
				m.versions[parts[0]] = parts[1]
			}
		case strings.HasPrefix(line, "struct "):
			cur = strings.TrimPrefix(line, "struct ")
			m.structs[cur] = []string{}
			m.structOrder = append(m.structOrder, cur)
		case strings.HasPrefix(line, "\t") && cur != "":
			m.structs[cur] = append(m.structs[cur], line)
		}
	}
	return m
}

// diffFieldLines returns "" when equal, or a one-line description of the
// first divergence.
func diffFieldLines(locked, current []string) string {
	for i := 0; i < len(locked) && i < len(current); i++ {
		if locked[i] != current[i] {
			return fmt.Sprintf("field %d: manifest has %q, source has %q",
				i+1, strings.TrimSpace(locked[i]), strings.TrimSpace(current[i]))
		}
	}
	if len(locked) > len(current) {
		return fmt.Sprintf("field %d removed: manifest has %q", len(current)+1, strings.TrimSpace(locked[len(current)]))
	}
	if len(current) > len(locked) {
		return fmt.Sprintf("field %d added: source has %q", len(locked)+1, strings.TrimSpace(current[len(locked)]))
	}
	return ""
}

// RenderWireManifest produces the golden manifest text for one loaded
// package, or "" when the package is not registered.
func RenderWireManifest(pkg *LoadedPackage) string {
	doc, ok := wireRegistry[pkg.PkgPath]
	if !ok || pkg.Types == nil {
		return ""
	}
	surface, order := wireSnapshot(pkg.Types, doc)
	var b strings.Builder
	b.WriteString("# qmclint wirelock manifest for " + pkg.PkgPath + "\n")
	b.WriteString("# Regenerate after a deliberate schema bump: go run ./cmd/qmclint -wiregen ./...\n")
	seenConst := map[string]bool{}
	for _, root := range doc.Roots {
		if seenConst[root.VersionConst] {
			continue
		}
		seenConst[root.VersionConst] = true
		fmt.Fprintf(&b, "version %s %s\n", root.VersionConst, surface.versions[root.VersionConst])
	}
	for _, name := range order {
		b.WriteString("struct " + name + "\n")
		for _, line := range surface.structs[name] {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// WireManifestName returns the manifest file name registered for a
// package path ("" when unregistered).
func WireManifestName(pkgPath string) string {
	return wireRegistry[pkgPath].Manifest
}

// CheckWireBump guards -wiregen: if the struct surface changed relative
// to the old manifest text but every governing version constant kept its
// old value, regeneration is refused — the bump must come first.
func CheckWireBump(pkg *LoadedPackage, oldText string) error {
	doc := wireRegistry[pkg.PkgPath]
	surface, order := wireSnapshot(pkg.Types, doc)
	old := parseWireManifest(oldText)
	var stale []string
	for _, name := range order {
		lockedFields, ok := old.structs[name]
		changed := !ok || diffFieldLines(lockedFields, surface.structs[name]) != ""
		if !changed {
			continue
		}
		vc := surface.version[name]
		if oldV, ok := old.versions[vc]; ok && oldV == surface.versions[vc] {
			stale = append(stale, fmt.Sprintf("%s (governed by %s, still %s)", name, vc, oldV))
		}
	}
	for _, name := range old.structOrder {
		if _, ok := surface.structs[name]; ok {
			continue
		}
		vc := "its schema constant"
		if len(doc.Roots) > 0 {
			vc = doc.Roots[0].VersionConst
			if oldV, ok := old.versions[vc]; !ok || oldV != surface.versions[vc] {
				continue // bumped already
			}
		}
		stale = append(stale, fmt.Sprintf("%s removed (bump %s first)", name, vc))
	}
	if len(stale) > 0 {
		return fmt.Errorf("%s: wire surface changed without a schema-version bump: %s",
			pkg.PkgPath, strings.Join(stale, "; "))
	}
	return nil
}
