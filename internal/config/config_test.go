package config

import (
	"strings"
	"testing"
)

func parse(t *testing.T, s string) *File {
	t.Helper()
	f, err := Parse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseBasics(t *testing.T) {
	f := parse(t, `
# lattice
nx = 8
ny = 8
U  = 2.5   # coupling
prepivot = true
name = run one
`)
	if f.Int("nx", 0) != 8 || f.Int("ny", 0) != 8 {
		t.Fatal("int parsing failed")
	}
	if f.Float("U", 0) != 2.5 {
		t.Fatal("float parsing failed")
	}
	if !f.Bool("prepivot", false) {
		t.Fatal("bool parsing failed")
	}
	if f.String("name", "") != "run one" {
		t.Fatal("string with spaces failed")
	}
	if err := f.Err(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCaseInsensitiveKeys(t *testing.T) {
	f := parse(t, "BeTa = 8\n")
	if f.Float("beta", 0) != 8 {
		t.Fatal("case-insensitive lookup failed")
	}
}

func TestDefaults(t *testing.T) {
	f := parse(t, "")
	if f.Int("missing", 7) != 7 || f.Float("missing", 1.5) != 1.5 ||
		!f.Bool("missing", true) || f.String("missing", "x") != "x" ||
		f.Uint64("missing", 9) != 9 {
		t.Fatal("defaults not honored")
	}
}

func TestMalformedLine(t *testing.T) {
	if _, err := Parse(strings.NewReader("nx 8\n")); err == nil {
		t.Fatal("missing '=' should fail")
	}
	if _, err := Parse(strings.NewReader("= 8\n")); err == nil {
		t.Fatal("empty key should fail")
	}
}

func TestDuplicateKey(t *testing.T) {
	if _, err := Parse(strings.NewReader("nx = 1\nnx = 2\n")); err == nil {
		t.Fatal("duplicate key should fail")
	}
}

func TestTypeErrorsCollected(t *testing.T) {
	f := parse(t, "nx = eight\nbeta = warm\n")
	if got := f.Int("nx", 3); got != 3 {
		t.Fatal("bad int should fall back to default")
	}
	f.Float("beta", 1)
	err := f.Err()
	if err == nil {
		t.Fatal("expected type errors")
	}
	if !strings.Contains(err.Error(), "nx") || !strings.Contains(err.Error(), "beta") {
		t.Fatalf("both errors should be reported: %v", err)
	}
}

func TestUnknownKeysReported(t *testing.T) {
	f := parse(t, "nx = 4\nbta = 8\n") // typo: bta
	f.Int("nx", 0)
	err := f.Err()
	if err == nil || !strings.Contains(err.Error(), "bta") {
		t.Fatalf("typo key should be reported: %v", err)
	}
}

func TestBoolSpellings(t *testing.T) {
	f := parse(t, "a = yes\nb = off\nc = 1\nd = FALSE\n")
	if !f.Bool("a", false) || f.Bool("b", true) || !f.Bool("c", false) || f.Bool("d", true) {
		t.Fatal("bool spellings")
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestUint64(t *testing.T) {
	f := parse(t, "seed = 18446744073709551615\n")
	if f.Uint64("seed", 0) != ^uint64(0) {
		t.Fatal("uint64 max failed")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/path/x.in"); err == nil {
		t.Fatal("expected error for missing file")
	}
}
