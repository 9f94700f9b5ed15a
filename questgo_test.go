package questgo

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"questgo/internal/config"
)

func TestDefaultConfigRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 2, 2
	cfg.L = 8
	cfg.WarmSweeps, cfg.MeasSweeps = 5, 10
	sim, err := NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if math.IsNaN(res.Density) || res.AvgSign == 0 {
		t.Fatalf("bad results: %+v", res)
	}
}

func TestLoadConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.in")
	content := `
# sample input
nx = 6
ny = 6
u = 2
beta = 4
l = 20
warm = 10
meas = 20
k = 5
prepivot = true
seed = 42
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nx != 6 || cfg.U != 2 || cfg.Beta != 4 || cfg.L != 20 || cfg.Seed != 42 {
		t.Fatalf("config mapping wrong: %+v", cfg)
	}
	// Defaults preserved for unspecified keys.
	if cfg.T != 1 || !cfg.PrePivot {
		t.Fatalf("defaults lost: %+v", cfg)
	}
}

// TestConfigFromFileKnowsEveryKey: Config's JSON tags are the input-file
// keys, all of them. For every field, a one-line file setting a non-default
// value must land in that field; only a validation error is tolerated (some
// knobs need a companion, e.g. graphs needs devices), never a config-layer
// one such as "unknown keys".
func TestConfigFromFileKnowsEveryKey(t *testing.T) {
	def := reflect.ValueOf(DefaultConfig())
	for i := 0; i < def.NumField(); i++ {
		key := def.Type().Field(i).Tag.Get("json")
		if key == "" {
			t.Fatalf("Config.%s has no json tag", def.Type().Field(i).Name)
		}
		var want any
		switch d := def.Field(i).Interface().(type) {
		case int:
			want = d + 1
		case float64:
			want = d + 0.5
		case bool:
			want = !d
		case uint64:
			want = d + 1
		default:
			t.Fatalf("Config.%s: ConfigFromFile has no mapping for kind %T", def.Type().Field(i).Name, d)
		}
		f, err := config.Parse(strings.NewReader(fmt.Sprintf("%s = %v\n", key, want)))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := ConfigFromFile(f)
		if err != nil && strings.Contains(err.Error(), "config:") {
			t.Fatalf("key %q: %v", key, err)
		}
		if got := reflect.ValueOf(cfg).Field(i).Interface(); got != want {
			t.Fatalf("key %q = %v landed as %v", key, want, got)
		}
	}
}

func TestConfigFromFileRejectsTypos(t *testing.T) {
	f, err := config.Parse(strings.NewReader("nx = 4\nbta = 8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ConfigFromFile(f); err == nil || !strings.Contains(err.Error(), "bta") {
		t.Fatalf("typo should be rejected: %v", err)
	}
}

func TestConfigFromFileValidates(t *testing.T) {
	for _, in := range []string{"beta = -3\n", "tprime = NaN\n"} {
		f, err := config.Parse(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ConfigFromFile(f); err == nil {
			t.Fatalf("invalid physics %q should be rejected", in)
		}
	}
}

func TestLoadConfigMissingFile(t *testing.T) {
	if _, err := LoadConfig("/no/such/file.in"); err == nil {
		t.Fatal("expected error")
	}
}
