package analysis

import (
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutants seeds the real tree with the defects qmclint exists to catch:
// each row rewrites one snippet of one real source file in memory, and the
// named analyzer must report a diagnostic containing want on the mutated
// package. A row with a nil analyzer is a defect the compiler now owns: the
// mutated package must fail to type-check with an error containing want.
// The corpus is what makes "still caught" measurable when the linter
// changes — every analyzer has a row, and the true positives the suite has
// found in review are here by name. A row whose old snippet no longer
// occurs exactly once fails, so the corpus cannot rot silently.
var mutants = []struct {
	name     string
	file     string // relative to the module root
	old, new string
	analyzer *Analyzer // nil: the mutant must not type-check
	want     string
}{
	{"PR 9: runCtx.Err() classified after cancel()", "internal/service/queue.go",
		"\tinterrupted := runCtx.Err() != nil && errors.Is(err, context.Canceled)\n\tcancel()\n",
		"\tcancel()\n\tinterrupted := runCtx.Err() != nil && errors.Is(err, context.Canceled)\n",
		CtxFlow, "runCtx.Err() runs after cancel()"},
	{"errors.Is(Canceled) classified after cancel()", "internal/service/queue.go",
		"\tinterrupted := runCtx.Err() != nil && errors.Is(err, context.Canceled)\n\tcancel()\n",
		"\tcancel()\n\tinterrupted := errors.Is(err, context.Canceled)\n",
		CtxFlow, "errors.Is against context.Canceled runs after cancel()"},

	{"Server.Close ranges over s.jobs", "internal/service/service.go",
		"\tfor _, id := range s.order {\n\t\tlive = append(live, s.jobs[id])\n\t}\n\ts.mu.Unlock()\n",
		"\tfor _, j := range s.jobs {\n\t\tlive = append(live, j)\n\t}\n\ts.mu.Unlock()\n",
		MapDet, "range over map[string]*questgo/internal/service.job"},
	{"unsorted key collect", "internal/service/service.go",
		"\tfor _, id := range s.order {\n\t\tlive = append(live, s.jobs[id])\n\t}\n\ts.mu.Unlock()\n",
		"\tvar ids []string\n\tfor id := range s.jobs {\n\t\tids = append(ids, id)\n\t}\n\tfor _, id := range ids {\n\t\tlive = append(live, s.jobs[id])\n\t}\n\ts.mu.Unlock()\n",
		MapDet, "map iteration order is randomized"},

	{"newJob appends to j.shards outside the lock", "internal/service/job.go",
		"\treturn &job{\n\t\tid: id, req: req, hash: hash,\n",
		"\tj := &job{}\n\tj.shards = append(j.shards, shards...)\n\treturn &job{\n\t\tid: id, req: req, hash: hash,\n",
		GuardedField, `job.shards is guarded by "mu" (//qmc:guarded) but newJob neither locks it`},
	{"dropped j.mu.Lock()", "internal/service/server.go",
		"\t\tj.mu.Lock()\n\t\tif next < j.firstSeq {\n", "\t\tif next < j.firstSeq {\n",
		GuardedField, "job.firstSeq is guarded by"},

	{"make in a //qmc:hot function", "internal/update/update.go",
		"\tgii := s.g.Data[i+i*s.g.Stride]\n", "\tgii := s.g.Data[i+i*s.g.Stride] + make([]float64, 1)[0]\n",
		HotAlloc, "hot path calls make"},
	{"make in internal/blas", "internal/blas/level1.go",
		"\tvar s0, s1, s2, s3 float64\n\tn := len(x)\n", "\tvar s0, s1, s2, s3 float64\n\tn := len(append(x, 0)) - 1\n",
		HotAlloc, "hot path calls append"},

	{"deleted mat.PutScratch", "internal/greens/udt.go",
		"\tmat.PutScratch(q)\n\tmat.PutScratch(t)\n", "\tmat.PutScratch(t)\n",
		PoolPair, "scratch matrix q from mat.GetScratch has no mat.PutScratch"},
	{"returned scratch", "internal/greens/udt.go",
		"\tg := mat.New(n, n)\n\treturn g, GreenInto(g, bs, prePivot)\n", "\tg := mat.GetScratch(n, n)\n\terr := GreenInto(g, bs, prePivot)\n\tmat.PutScratch(g)\n\treturn g, err\n",
		PoolPair, "scratch matrix g escapes via return"},

	{"math/rand imported in update", "internal/update/update.go",
		"import (\n", "import (\n\t_ \"math/rand\"\n",
		RngDiscipline, "import of math/rand outside internal/rng"},

	{"bare-string shape panic in blas", "internal/blas/trsm.go",
		`panic(fmt.Sprintf("blas: Trsm dimension mismatch: T is %dx%d, B is %dx%d", t.Rows, t.Cols, b.Rows, b.Cols))`,
		`_ = fmt.Sprint(t.Rows, b.Rows) // the mutant must still import fmt
		panic("blas: Trsm dimension mismatch")`,
		NakedPanic, `shape panic "blas: Trsm dimension mismatch" carries no dimensions`},

	{"dropped os.WriteFile error in cmd/figures", "cmd/figures/main.go",
		"\tif err := os.WriteFile(path, []byte(content), 0o644); err != nil {\n\t\tfmt.Fprintln(os.Stderr, \"figures:\", err)\n\t\treturn\n\t}\n",
		"\tos.WriteFile(path, []byte(content), 0o644)\n",
		ErrCheck, "result of os.WriteFile includes an error that is discarded"},
	{"dropped checkpoint Save error in service", "internal/service/shard.go",
		"\tif serr := sim.Checkpoint().Save(sh.ckptPath); serr != nil {\n", "\tsim.Checkpoint().Save(sh.ckptPath)\n\tif serr := error(nil); serr != nil {\n",
		ErrCheck, "result of Save includes an error that is discarded"},

	// The device clock cells are unexported in internal/gpu/hw: the engine
	// cannot charge time outside an event-ordered stream.
	{"acc.Dev.busyNS += 1 in Accelerator.Flush", "internal/gpu/offload.go",
		"\tn := g.Rows\n\tduV := ", "\tacc.Dev.busyNS += 1\n\tn := g.Rows\n\tduV := ",
		nil, "cannot refer to unexported field busyNS"},
	{"atomic.AddInt64(&acc.Dev.launchNS) in an Accelerator method", "internal/gpu/offload.go",
		"\t\"questgo/internal/obs\"\n)\n", "\t\"questgo/internal/obs\"\n\t\"sync/atomic\"\n)\n\nfunc (acc *Accelerator) bump() { atomic.AddInt64(&acc.Dev.launchNS, 1) }\n",
		nil, "cannot refer to unexported field launchNS"},

	{"undrained goroutine in service", "internal/service/service.go",
		"\ts.routes()\n", "\ts.routes()\n\tgo func() {\n\t\tfor {\n\t\t}\n\t}()\n",
		GoLeak, "goroutine has no visible drain path"},
}

// TestMutantsCaught applies every mutant to the real source and demands the
// named diagnostic in the mutated file (or, for a nil analyzer, the type
// error); the unmutated package must be silent, so the finding is the
// mutation's.
func TestMutantsCaught(t *testing.T) {
	covered := map[*Analyzer]bool{}
	clean := map[string]bool{} // package directories already checked silent
	for _, m := range mutants {
		covered[m.analyzer] = true
		t.Run(m.name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("..", "..", m.file))
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(src, []byte(m.old)); n != 1 {
				t.Fatalf("%s: old snippet occurs %d times, want exactly 1 — the tree moved, re-seed this mutant:\n%s", m.file, n, m.old)
			}
			if dir := filepath.Dir(m.file); !clean[dir] {
				clean[dir] = true
				if diags := analyzeTree(t, All(), m.file, nil); len(diags) > 0 {
					t.Fatalf("%s is not clean before mutation: %v", dir, diags)
				}
			}
			mutated := bytes.Replace(src, []byte(m.old), []byte(m.new), 1)
			if m.analyzer == nil {
				if _, err := checkTree(t, m.file, mutated); err == nil || !strings.Contains(err.Error(), m.want) {
					t.Fatalf("mutant type-checks or fails for another reason: %v; want an error containing %q", err, m.want)
				}
				return
			}
			diags := analyzeTree(t, []*Analyzer{m.analyzer}, m.file, mutated)
			for _, d := range diags {
				if strings.Contains(d.Message, m.want) && filepath.Base(d.Pos.Filename) == filepath.Base(m.file) {
					return
				}
			}
			t.Fatalf("%s did not report %q; got %v", m.analyzer.Name, m.want, diags)
		})
	}
	for _, a := range All() {
		if !covered[a] {
			t.Errorf("analyzer %s has no mutant", a.Name)
		}
	}
}

// treeFiles caches the parsed, unmutated files of each real package.
var treeFiles = map[string][]*ast.File{}

// analyzeTree type-checks the real package holding file — with mutated, when
// non-nil, standing in for that file's bytes — and runs the analyzers on it.
func analyzeTree(t *testing.T, analyzers []*Analyzer, file string, mutated []byte) []Diagnostic {
	t.Helper()
	pkg, err := checkTree(t, file, mutated)
	if err != nil {
		t.Fatalf("mutant must still compile: %v", err)
	}
	diags, err := RunAnalyzers([]*LoadedPackage{pkg}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// checkTree type-checks the real package holding file, with mutated (when
// non-nil) standing in for that file's bytes. It shares the fixture
// importer, so dependencies are type-checked once per test binary, and only
// the default build's files are loaded.
func checkTree(t *testing.T, file string, mutated []byte) (*LoadedPackage, error) {
	t.Helper()
	dir := filepath.Join("..", "..", filepath.Dir(file))
	if treeFiles[dir] == nil {
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range bp.GoFiles {
			treeFiles[dir] = append(treeFiles[dir], parseTreeFile(t, filepath.Join(dir, name), nil))
		}
	}
	files := append([]*ast.File(nil), treeFiles[dir]...)
	for i, f := range files {
		if path := fixtureFset.File(f.Pos()).Name(); mutated != nil && filepath.Base(path) == filepath.Base(file) {
			files[i] = parseTreeFile(t, path, mutated)
		}
	}
	return typeCheck(fixtureFset, fixtureImporter, "questgo/"+filepath.ToSlash(filepath.Dir(file)), files)
}

func parseTreeFile(t *testing.T, path string, src any) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(fixtureFset, path, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
