package analysis

import (
	"strings"
	"testing"
)

// fixtureCases pairs every analyzer with its testdata package(s); each
// fixture mixes positive lines (tagged `// want "substring"`) with
// negative ones that must stay silent. TestMessageCoverage replays the
// same table, so adding an analyzer without fixtures fails twice.
var fixtureCases = []struct {
	analyzer *Analyzer
	dir      string
}{
	{HotAlloc, "hotalloc"},
	{PoolPair, "poolpair"},
	{RngDiscipline, "rngdiscipline"},
	{RngDiscipline, "rngdiscipline_ok"},
	{NakedPanic, "nakedpanic"},
	{ErrCheck, "errcheck"},
	{ErrCheck, "errcheck_service"},
	{CtxFlow, "ctxflow"},
	{GuardedField, "guardedfield"},
	{GoLeak, "goleak"},
	{MapDet, "mapdet"},
}

func TestFixtures(t *testing.T) {
	for _, c := range fixtureCases {
		c := c
		t.Run(c.dir+"/"+c.analyzer.Name, func(t *testing.T) {
			runFixture(t, c.analyzer, c.dir)
		})
	}
}

// TestAllRegistered keeps cmd/qmclint's -list in sync with the suite.
func TestAllRegistered(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v is missing a name, doc or run function", a)
		}
		if len(a.Messages) == 0 {
			t.Fatalf("analyzer %q declares no diagnostic messages", a.Name)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestMessageCoverage enforces the fixture contract both ways: every
// declared diagnostic format must fire from at least one fixture line,
// and no analyzer may emit a format it does not declare. It replays the
// fixture table itself so the result does not depend on test ordering.
func TestMessageCoverage(t *testing.T) {
	for _, c := range fixtureCases {
		runFixture(t, c.analyzer, c.dir)
	}
	cov := MessageCoverage()
	for _, a := range All() {
		declared := map[string]bool{}
		for _, m := range a.Messages {
			declared[m] = true
		}
		for _, m := range a.Messages {
			if !cov[a.Name][m] {
				t.Errorf("%s: declared message has no exercising fixture: %q", a.Name, m)
			}
		}
		for m := range cov[a.Name] {
			if !declared[m] {
				t.Errorf("%s: emitted message is not declared in Messages: %q", a.Name, m)
			}
		}
	}
}

// TestConcurrentRunDeterministic loads several fixture packages at once
// and runs the full suite repeatedly; under -race this exercises the
// parallel per-package analysis, and the diagnostics must come back in
// identical order every time.
func TestConcurrentRunDeterministic(t *testing.T) {
	var pkgs []*LoadedPackage
	for _, dir := range []string{"ctxflow", "goleak", "mapdet", "guardedfield", "hotalloc"} {
		pkgs = append(pkgs, loadFixturePackage(t, dir))
	}
	baseline, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	if len(baseline) == 0 {
		t.Fatal("expected diagnostics from the fixture packages")
	}
	for i := 0; i < 5; i++ {
		diags, err := RunAnalyzers(pkgs, All())
		if err != nil {
			t.Fatalf("RunAnalyzers (run %d): %v", i, err)
		}
		if len(diags) != len(baseline) {
			t.Fatalf("run %d: %d diagnostics, want %d", i, len(diags), len(baseline))
		}
		for j := range diags {
			if diags[j].String() != baseline[j].String() {
				t.Fatalf("run %d: diagnostic %d is %q, want %q", i, j, diags[j], baseline[j])
			}
		}
	}
}

// TestLoadRefusesTypeErrors: a package that does not type-check is an error
// from Load (qmclint exits 2), never a quiet pass over sparse type info.
func TestLoadRefusesTypeErrors(t *testing.T) {
	pkgs, err := Load("testdata/typeerr", ".")
	if err == nil || !strings.Contains(err.Error(), "undefined: undefinedSymbol") {
		t.Fatalf("Load of a package with a type error returned %d packages and error %v, want the type error", len(pkgs), err)
	}
}
