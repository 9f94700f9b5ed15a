package analysis

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// analyzeTempFile writes src to its own temp package dir, type-checks it and
// runs one analyzer — the round trip `qmclint -fix` performs per file.
func analyzeTempFile(t *testing.T, a *Analyzer, src string) (string, []Diagnostic) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "tmp.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	f, err := parser.ParseFile(fixtureFset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pkg := typeCheck(fixtureFset, fixtureImporter, "fixture/fixtmp", dir, []*ast.File{f})
	diags, err := RunAnalyzers([]*LoadedPackage{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return path, diags
}

const leakSrc = `package fixtmp

import "context"

func leak() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	_ = cancel
	return ctx
}
`

// TestApplyFixesInsertDefer drives the ctxflow leak fix end to end: the
// rewritten file gains the defer and re-analyzes clean.
func TestApplyFixesInsertDefer(t *testing.T) {
	path, diags := analyzeTempFile(t, CtxFlow, leakSrc)
	if len(diags) != 1 || diags[0].Fix == nil {
		t.Fatalf("want 1 fixable diagnostic, got %v", diags)
	}
	changed, err := ApplyFixes(diags)
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	if len(changed) != 1 || changed[0] != path {
		t.Fatalf("changed = %v, want [%s]", changed, path)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !strings.Contains(string(out), "defer cancel()") {
		t.Fatalf("fixed file lacks defer cancel():\n%s", out)
	}
	f, err := parser.ParseFile(fixtureFset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("reparse fixed file: %v", err)
	}
	pkg := typeCheck(fixtureFset, fixtureImporter, "fixture/fixtmp", filepath.Dir(path), []*ast.File{f})
	again, err := RunAnalyzers([]*LoadedPackage{pkg}, []*Analyzer{CtxFlow})
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if len(again) != 0 {
		t.Fatalf("fixed file still has diagnostics: %v", again)
	}
}

const misclassifySrc = `package fixtmp

import (
	"context"
	"errors"
)

func classify(err error) bool {
	ctx, cancel := context.WithCancel(context.Background())
	_ = ctx
	cancel()
	interrupted := errors.Is(err, context.Canceled)
	return interrupted
}
`

// TestApplyFixesSwapClassification drives the ctxflow hoist fix: the
// classification moves above cancel() and the file re-analyzes clean.
func TestApplyFixesSwapClassification(t *testing.T) {
	path, diags := analyzeTempFile(t, CtxFlow, misclassifySrc)
	if len(diags) != 1 || diags[0].Fix == nil {
		t.Fatalf("want 1 fixable diagnostic, got %v", diags)
	}
	if _, err := ApplyFixes(diags); err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	ci := strings.Index(string(out), "cancel()\n")
	ii := strings.Index(string(out), "interrupted :=")
	if ci < 0 || ii < 0 || ii > ci {
		t.Fatalf("classification was not hoisted above cancel():\n%s", out)
	}
	f, err := parser.ParseFile(fixtureFset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("reparse fixed file: %v", err)
	}
	pkg := typeCheck(fixtureFset, fixtureImporter, "fixture/fixtmp", filepath.Dir(path), []*ast.File{f})
	again, err := RunAnalyzers([]*LoadedPackage{pkg}, []*Analyzer{CtxFlow})
	if err != nil {
		t.Fatalf("re-run: %v", err)
	}
	if len(again) != 0 {
		t.Fatalf("fixed file still has diagnostics: %v", again)
	}
}

const cleanSrc = `package fixtmp

import "context"

func clean(parent context.Context) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	<-ctx.Done()
	return ctx.Err()
}
`

// TestApplyFixesNoOpOnCleanTree is the -fix contract on an already-clean
// package: zero diagnostics, zero rewritten files, untouched bytes.
func TestApplyFixesNoOpOnCleanTree(t *testing.T) {
	path, diags := analyzeTempFile(t, CtxFlow, cleanSrc)
	if len(diags) != 0 {
		t.Fatalf("clean source produced diagnostics: %v", diags)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	changed, err := ApplyFixes(diags)
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	if len(changed) != 0 {
		t.Fatalf("no-op run rewrote files: %v", changed)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if string(before) != string(after) {
		t.Fatal("file content changed on a clean tree")
	}
}

// TestApplyFixesRejectsOverlap: two fixes touching the same byte range must
// refuse to apply rather than splice garbage.
func TestApplyFixesRejectsOverlap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tmp.go")
	if err := os.WriteFile(path, []byte("package fixtmp\n\nvar a, b = 1, 2\n"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	diags := []Diagnostic{
		{Fix: &Fix{Kind: FixSwap, Path: path, AStart: 20, AEnd: 21, BStart: 27, BEnd: 28}},
		{Fix: &Fix{Kind: FixInsert, Path: path, Off: 24, Text: "x"}},
	}
	if _, err := ApplyFixes(diags); err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Fatalf("want overlapping-fixes error, got %v", err)
	}
}
