package wiretest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type inner struct {
	X float64 `json:"x"`
}

type doc struct {
	A   int              `json:"a"`
	B   string           `json:"b,omitempty"`
	Sub []*inner         `json:"sub"`
	M   map[string]inner `json:"m"`
}

const docVersion = "1.0"

var docRoot = Root{Doc: doc{}, VersionConst: "DocSchemaVersion", Version: docVersion}

// TestDriftKinds locks doc, then edits the *manifest* — from the lock's
// point of view the same thing as the opposite edit to the source — once
// per kind of drift, in check mode and in regenerate mode.
func TestDriftKinds(t *testing.T) {
	golden, _ := render([]Root{docRoot})
	if want := "struct doc\n\tA int `json:\"a\"`\n"; !strings.Contains(golden, want) ||
		!strings.Contains(golden, "version DocSchemaVersion \"1.0\"\n") ||
		strings.Count(golden, "struct inner\n\tX float64 `json:\"x\"`\n") != 1 {
		t.Fatalf("unexpected manifest:\n%s", golden)
	}
	edit := func(old, new string) string {
		if !strings.Contains(golden, old) {
			t.Fatalf("manifest lacks %q:\n%s", old, golden)
		}
		return strings.Replace(golden, old, new, 1)
	}
	fieldA, fieldB := "\tA int `json:\"a\"`\n", "\tB string `json:\"b,omitempty\"`\n"
	cases := []struct {
		name     string
		manifest string // "" = no file
		want     string // error substring in check mode; "" = passes
		regenOK  bool   // WIRELOCK_REGEN=1 rewrites instead of refusing
	}{
		{"in sync", golden, "", true},
		{"manifest missing", "", "is missing", true},
		{"version changed without regeneration", edit(`"1.0"`, `"0.9"`), "is stale", true},
		{"field renamed", edit("\tA int", "\tAlpha int"), "struct doc diverges", false},
		{"field retagged", edit(`json:"a"`, `json:"alpha"`), "DocSchemaVersion is still \"1.0\"", false},
		{"field retyped", edit("\tA int", "\tA int64"), "struct doc diverges", false},
		{"field reordered", edit(fieldA+fieldB, fieldB+fieldA), "struct doc diverges", false},
		{"field added", edit(fieldB, ""), "struct doc diverges", false},
		{"field removed", edit(fieldB, fieldB+"\tC bool `json:\"c\"`\n"), "struct doc diverges", false},
		{"struct dropped", golden + "struct gone\n\tZ int `json:\"z\"`\n", "struct gone diverges", false},
		{"new reachable struct", edit("struct inner\n\tX float64 `json:\"x\"`\n", ""), "struct inner diverges", false},
		{"drift with a bump", strings.Replace(edit("\tA int", "\tAlpha int"), `"1.0"`, `"0.9"`, 1), "is stale", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "doc.manifest")
			if c.manifest != "" {
				if err := os.WriteFile(path, []byte(c.manifest), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			err := Check(path, docRoot)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("check: %v", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Fatalf("check: got %v, want an error containing %q", err, c.want)
			}

			t.Setenv("WIRELOCK_REGEN", "1")
			err = Check(path, docRoot)
			after, _ := os.ReadFile(path)
			switch {
			case c.regenOK && (err != nil || string(after) != golden):
				t.Fatalf("regenerate: err %v, manifest now:\n%s", err, after)
			case !c.regenOK && (err == nil || !strings.Contains(err.Error(), "bump DocSchemaVersion")):
				t.Fatalf("regenerate without a bump: got %v, want a refusal naming the constant", err)
			case !c.regenOK && string(after) != c.manifest:
				t.Fatalf("a refused regeneration rewrote the manifest:\n%s", after)
			}
		})
	}
}

// TestSharedConstantAndClosure: roots sharing a constant emit one version
// line, a struct reachable from two roots is listed once, and foreign
// structs are named but not expanded.
func TestSharedConstantAndClosure(t *testing.T) {
	type other struct {
		In  inner           `json:"in"`
		Out strings.Builder `json:"out"`
	}
	text, governs := render([]Root{docRoot, {Doc: other{}, VersionConst: "DocSchemaVersion", Version: docVersion}})
	if strings.Count(text, "version ") != 1 || strings.Count(text, "struct ") != 3 ||
		!strings.Contains(text, "\tOut strings.Builder `json:\"out\"`\n") {
		t.Fatalf("unexpected manifest:\n%s", text)
	}
	if len(governs) != 3 || governs["inner"] != "DocSchemaVersion" {
		t.Fatalf("governs = %v", governs)
	}
}

// TestRenamedRootUnderSecondConstant: a manifest does not record which
// constant governed a struct that is gone, so renaming the root of the
// second constant regenerates once that constant is bumped (and not before).
func TestRenamedRootUnderSecondConstant(t *testing.T) {
	type before struct {
		X float64 `json:"x"`
	}
	type after struct {
		X float64 `json:"x"`
	}
	path := filepath.Join(t.TempDir(), "two.manifest")
	t.Setenv("WIRELOCK_REGEN", "1")
	if err := Check(path, docRoot, Root{Doc: before{}, VersionConst: "SecondSchemaVersion", Version: "1.0"}); err != nil {
		t.Fatal(err)
	}
	if err := Check(path, docRoot, Root{Doc: after{}, VersionConst: "SecondSchemaVersion", Version: "1.0"}); err == nil {
		t.Fatal("a renamed root regenerated without a bump")
	}
	if err := Check(path, docRoot, Root{Doc: after{}, VersionConst: "SecondSchemaVersion", Version: "2.0"}); err != nil {
		t.Fatalf("a renamed root under its bumped constant: %v", err)
	}
}
