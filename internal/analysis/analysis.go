// Package analysis is qmclint: a repo-specific static-analysis suite that
// machine-checks the invariants the fast paths rely on — the properties the
// compiler cannot see but PRs 1–3 bought their throughput with.
//
// The Go module proxy is not available in the build environment, so the
// suite does not depend on golang.org/x/tools/go/analysis; instead it
// implements the same analyzer/pass/diagnostic shape on the standard
// library (go/ast + go/types with the source importer, packages enumerated
// by `go list -json`). The API is deliberately a subset of x/tools so the
// analyzers could be ported to a real multichecker verbatim if the
// dependency ever becomes available.
//
// Analyzers (run all of them with `go run ./cmd/qmclint ./...`):
//
//   - hotalloc: no make/append/new/closure/fmt allocations in //qmc:hot
//     functions (and anywhere in internal/blas, which is hot top to bottom);
//     hot-path buffers must route through the mat scratch pools.
//   - poolpair: every mat.GetScratch has a matching mat.PutScratch in the
//     same function, and scratch never escapes through a return.
//   - rngdiscipline: math/rand is forbidden outside internal/rng; all
//     stochastic behavior must flow through the deterministic xoshiro
//     streams or trajectories stop being reproducible.
//   - nakedpanic: kernel panics about shapes must carry the offending
//     dimensions (fmt.Sprintf), not a bare string.
//   - errcheck: cmd/* must not drop errors from flag/JSON/file handling.
//   - ctxflow: every context.WithCancel/WithTimeout cancel func is
//     deferred, called, or stored; and no ctx.Err() / errors.Is(err,
//     context.Canceled) classification runs after the corresponding
//     cancel() in the same function (the misclassification bug class).
//   - guardedfield: //qmc:guarded(mu) struct fields may only be touched by
//     functions that lock the named mutex or carry a //qmc:locked(mu)
//     caller-holds contract.
//   - goleak: every go statement needs a visible drain path (select,
//     channel receive/range, WaitGroup Done) or a justified waiver.
//   - mapdet: no range over a map in the deterministic packages — map
//     iteration order is the canonical silent determinism killer.
//
// Every analyzer may assume complete type information: Load refuses a
// package that does not type-check. Invariants the compiler or a test can
// hold are not this suite's business: the versioned wire documents are
// pinned by each owning package's TestWireLocked (see internal/wiretest),
// the simulated device's clock cells are unexported in internal/gpu/hw so
// only its Stream/Graph layer can advance them, and deleting any op-counter
// charge fails a tier-1 test (internal/obs's TestKernelCharges asserts by
// value the charges no other test pins).
//
// # Annotations
//
//	//qmc:hot                    function must be allocation-free (hotalloc)
//	//qmc:guarded(mu)            struct field is guarded by sibling mutex mu
//	//qmc:locked(mu)             function runs with mutex mu already held
//	//qmc:allow name[,name] -- why   suppress named analyzers on this or the
//	                                 next line (a justification is required)
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one named check. Run inspects a pass and reports diagnostics
// through pass.Reportf.
//
// Messages lists every diagnostic format string the analyzer may pass to
// Reportf; the fixture suite fails unless each one is exercised by at
// least one // want comment, and Reportf coverage of an undeclared format
// is equally a test failure — so the fixture set and the analyzer cannot
// drift apart.
type Analyzer struct {
	Name     string
	Doc      string
	Messages []string
	Run      func(*Pass) error
}

// Diagnostic is one finding, positioned for file:line:col display.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	PkgPath  string
	Info     *types.Info // complete: the package type-checked without error

	diags    *[]Diagnostic
	suppress map[string]map[int][]string // filename -> line -> allowed analyzer names
}

// Reportf records a diagnostic at pos unless a //qmc:allow comment on the
// same or the preceding line waives this analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.allowed(position) {
		return
	}
	recordCoverage(p.Analyzer.Name, format)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Funcs calls fn for every function declaration that has a body, in file
// and source order.
func (p *Pass) Funcs(fn func(fd *ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// Message-format coverage bookkeeping: every unsuppressed Reportf records
// which declared format fired, so the test suite can demand a fixture per
// message. Guarded by a mutex — RunAnalyzers analyzes packages
// concurrently.
var (
	coverageMu   sync.Mutex
	coverageSeen = map[string]map[string]bool{}
)

func recordCoverage(analyzer, format string) {
	coverageMu.Lock()
	m := coverageSeen[analyzer]
	if m == nil {
		m = map[string]bool{}
		coverageSeen[analyzer] = m
	}
	m[format] = true
	coverageMu.Unlock()
}

// MessageCoverage snapshots which diagnostic formats each analyzer has
// emitted in this process (analyzer name -> format -> fired).
func MessageCoverage() map[string]map[string]bool {
	coverageMu.Lock()
	defer coverageMu.Unlock()
	out := make(map[string]map[string]bool, len(coverageSeen))
	for a, formats := range coverageSeen {
		fc := make(map[string]bool, len(formats))
		for f := range formats {
			fc[f] = true
		}
		out[a] = fc
	}
	return out
}

func (p *Pass) allowed(pos token.Position) bool {
	lines := p.suppress[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == p.Analyzer.Name {
				return true
			}
		}
	}
	return false
}

// buildSuppressions indexes every //qmc:allow comment by file and line.
// The directive form is `//qmc:allow name[,name...] -- justification`. A
// directive without a justification is ignored — the diagnostic keeps
// firing — so every waiver in the tree states why it is safe.
func buildSuppressions(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	sup := make(map[string]map[int][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//qmc:allow ")
				if !ok {
					continue
				}
				names, why, found := strings.Cut(rest, "--")
				if !found || strings.TrimSpace(why) == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := sup[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					sup[pos.Filename] = lines
				}
				for _, n := range strings.Split(names, ",") {
					if n = strings.TrimSpace(n); n != "" {
						lines[pos.Line] = append(lines[pos.Line], n)
					}
				}
			}
		}
	}
	return sup
}

// hasDirective reports whether the doc comment carries the exact directive
// line (e.g. "//qmc:hot").
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// pkgSelector resolves a selector expression like obs.Add to
// (importPath, funcName) when its base names an imported package.
func (p *Pass) pkgSelector(e ast.Expr) (path, name string) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path(), sel.Sel.Name
	}
	return "", ""
}

// isBuiltin reports whether id names the given predeclared function (make,
// append, new, panic, ...), i.e. it is not shadowed by a local object.
func (p *Pass) isBuiltin(id *ast.Ident, name string) bool {
	_, builtin := p.Info.Uses[id].(*types.Builtin)
	return builtin && id.Name == name
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by position. Packages are analyzed concurrently (the
// per-package goroutines share only the coverage recorder, which is
// mutex-guarded); the merged output is deterministic because each
// package's findings land in its own slot before the final sort.
func RunAnalyzers(pkgs []*LoadedPackage, analyzers []*Analyzer) ([]Diagnostic, error) {
	perPkg := make([][]Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *LoadedPackage) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sup := buildSuppressions(pkg.Fset, pkg.Files)
			for _, a := range analyzers {
				pass := &Pass{
					Analyzer: a,
					Fset:     pkg.Fset,
					Files:    pkg.Files,
					PkgPath:  pkg.PkgPath,
					Info:     pkg.Info,
					diags:    &perPkg[i],
					suppress: sup,
				}
				if err := a.Run(pass); err != nil {
					errs[i] = fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
					return
				}
			}
		}(i, pkg)
	}
	wg.Wait()
	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	for _, err := range errs {
		if err != nil {
			return diags, err
		}
	}
	return diags, nil
}

// All returns the full qmclint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		HotAlloc,
		PoolPair,
		RngDiscipline,
		NakedPanic,
		ErrCheck,
		CtxFlow,
		GuardedField,
		GoLeak,
		MapDet,
	}
}
