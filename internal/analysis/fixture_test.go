package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// This file is a miniature analysistest: fixture packages live under
// testdata/<analyzer>/, and lines that should trigger a diagnostic carry a
// trailing `// want "substring"` comment (several substrings allowed). The
// harness type-checks the fixture with the source importer — fixtures may
// import the real questgo packages — runs one analyzer, and diffs the
// diagnostics against the expectations.
//
// Because several analyzers key on the package import path (nakedpanic only
// fires in kernel packages, rngdiscipline exempts internal/rng, ...), a
// fixture may pin its path with a magic first-line comment:
//
//	//qmclint:path questgo/internal/blas

var wantRE = regexp.MustCompile(`// want (.+)$`)

// Every fixture load shares one file set and one source importer: the
// importer type-checks each imported package — the standard library
// included — from source once and caches it, so a test binary pays for the
// standard library once instead of once per fixture. Fixture tests do not
// run in parallel (the importer is not safe for concurrent use).
var (
	fixtureFset     = token.NewFileSet()
	fixtureImporter = newImporter(fixtureFset)
)

// runFixture analyzes testdata/<dir> with a and compares diagnostics
// against the fixture's want comments.
func runFixture(t testing.TB, a *Analyzer, dir string) {
	t.Helper()
	pkg := loadFixturePackage(t, dir)
	type want struct {
		substr  string
		matched bool
	}
	wants := make(map[string][]*want) // "file:line" -> expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range splitQuoted(m[1]) {
					wants[key] = append(wants[key], &want{substr: q})
				}
			}
		}
	}

	diags, err := RunAnalyzers([]*LoadedPackage{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, dir, err)
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && strings.Contains(d.Message, w.substr) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", dir, d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: %s: missing diagnostic containing %q", dir, key, w.substr)
			}
		}
	}
}

// loadFixturePackage parses and type-checks one testdata fixture package
// (honoring //qmclint:path), for runFixture and for tests that drive
// RunAnalyzers over several packages at once. Fixtures must type-check.
func loadFixturePackage(t testing.TB, dir string) *LoadedPackage {
	t.Helper()
	pattern := filepath.Join("testdata", dir, "*.go")
	names, err := filepath.Glob(pattern)
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files match %s", pattern)
	}
	sort.Strings(names)
	var files []*ast.File
	pkgPath := "fixture/" + dir
	for _, name := range names {
		f, err := parser.ParseFile(fixtureFset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, "//qmclint:path "); ok {
					pkgPath = strings.TrimSpace(rest)
				}
			}
		}
	}
	pkg, err := typeCheck(fixtureFset, fixtureImporter, pkgPath, files)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	return pkg
}

// splitQuoted extracts the double-quoted substrings of a want clause, e.g.
// `"a" "b"` -> [a b].
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			return out
		}
		j := strings.IndexByte(s[i+1:], '"')
		if j < 0 {
			return out
		}
		out = append(out, s[i+1:i+1+j])
		s = s[i+j+2:]
	}
}
