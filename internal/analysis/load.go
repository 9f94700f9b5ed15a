package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
)

// LoadedPackage is one parsed and fully type-checked package, ready for
// analysis.
type LoadedPackage struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Info    *types.Info
}

// Load enumerates the packages matching patterns (go list syntax, e.g.
// "./...") under dir, parses their non-test Go files and type-checks them
// with the source importer. It needs only the Go toolchain — no module
// downloads — which keeps qmclint runnable in hermetic build environments.
// A package that does not type-check is an error: the analyzers rely on
// complete type information, and a tree that cannot be analysed must not
// pass. go list honours GOFLAGS, so GOFLAGS=-tags=... selects the files a
// tagged build would compile.
func Load(dir string, patterns ...string) ([]*LoadedPackage, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"list", "-json=ImportPath,Dir,GoFiles"}, patterns...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	fset := token.NewFileSet()
	imp := newImporter(fset)
	var pkgs []*LoadedPackage
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var meta struct {
			ImportPath string
			Dir        string
			GoFiles    []string
		}
		if err := dec.Decode(&meta); err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if len(meta.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range meta.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(meta.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := typeCheck(fset, imp, meta.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typeCheck runs go/types over one package and fails on the first type
// error.
func typeCheck(fset *token.FileSet, imp types.Importer, pkgPath string, files []*ast.File) (*LoadedPackage, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(pkgPath, fset, files, info); err != nil {
		return nil, fmt.Errorf("%s does not type-check: %w", pkgPath, err)
	}
	return &LoadedPackage{PkgPath: pkgPath, Fset: fset, Files: files, Info: info}, nil
}

// cachedImporter memoizes the source importer by import path: on every call,
// cached or not, that importer first resolves the path through go/build,
// which costs one `go list` subprocess per module-local import.
type cachedImporter struct {
	src  types.Importer
	pkgs map[string]*types.Package
}

func (c *cachedImporter) Import(path string) (*types.Package, error) {
	if pkg := c.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	pkg, err := c.src.Import(path)
	if err == nil {
		c.pkgs[path] = pkg
	}
	return pkg, err
}

// newImporter returns a memoizing source importer over fset. It is not safe
// for concurrent use.
func newImporter(fset *token.FileSet) types.Importer {
	return &cachedImporter{src: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*types.Package{}}
}
