package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"questgo/internal/blas"
)

// goldenFamily names the arithmetic a build rounds with: the amd64
// assembly kernels (the 8x8 and 8x4 micro-kernels give the same bits,
// TestGemmBitwiseAcrossKernels) or the portable Go loops, per architecture
// (a compiler that fuses multiply-adds rounds them differently).
func goldenFamily() string {
	if _, mr, _ := blas.Kernel(); mr == 8 {
		return runtime.GOARCH + "-asm"
	}
	return runtime.GOARCH + "-go"
}

// goldenDoc is the canonical Results document of a run minus the timing
// fields obs.Metrics declares nondeterministic, one key per line.
func goldenDoc(t *testing.T, r *Results) []byte {
	t.Helper()
	cp := *r
	if r.Metrics != nil {
		m := r.Metrics.WithoutTimings()
		cp.Metrics = &m
	}
	b, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return append(b, '\n')
}

// TestResultsGolden pins whole Results documents, minus timings, to the
// committed testdata/golden/<family>/ files: any change that moves a bit of
// an observable, a stability sample or an op count fails here, naming the
// fields. The configurations are the off-half-filling dynamics run (4x4,
// U = 4, mu = 0.5, beta = 4, L = 40, k = 10, G(d, tau) measured) on the
// host and on two simulated devices with command graphs. GOLDEN_REGEN=1
// rewrites the files of the running build's family instead; a change that
// should move bits regenerates once and says which fields moved and why.
func TestResultsGolden(t *testing.T) {
	dir := filepath.Join("testdata", "golden", goldenFamily())
	regen := os.Getenv("GOLDEN_REGEN") != ""
	for _, e := range []struct {
		name    string
		devices int
	}{{"dynamics_4x4_host", 0}, {"dynamics_4x4_devices2_graphs", 2}} {
		cfg := DefaultConfig()
		cfg.Mu, cfg.Beta, cfg.L, cfg.ClusterK = 0.5, 4, 40, 10
		cfg.WarmSweeps, cfg.MeasSweeps = 10, 20
		cfg.MeasureDynamics = true
		cfg.Devices, cfg.UseGraphs = e.devices, e.devices > 0
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		got := goldenDoc(t, res)
		path := filepath.Join(dir, e.name+".json")
		if regen {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			t.Skipf("no golden documents for arithmetic family %s; GOLDEN_REGEN=1 go test -run TestResultsGolden ./internal/core writes them", goldenFamily())
		}
		if err != nil {
			t.Fatal(err)
		}
		if diff := lineDiff(string(got), string(want)); diff != "" {
			t.Errorf("%s: document differs from %s:\n%s", e.name, path, diff)
		}
	}
}

// lineDiff lists the lines of got and want that differ, position by
// position (the documents share one key order), each under the key path
// that holds it, up to a screenful.
func lineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	var out strings.Builder
	var path []string // the keys open above the current line
	n := 0
	for i := 0; i < max(len(g), len(w)); i++ {
		var a, b string
		if i < len(g) {
			a = g[i]
		}
		if i < len(w) {
			b = w[i]
		}
		line := strings.TrimLeft(b, " ")
		path = path[:min(max((len(b)-len(line))/2-1, 0), len(path))]
		if k, _, ok := strings.Cut(line, `": `); ok && strings.HasPrefix(k, `"`) {
			path = append(path, strings.Trim(k, `"`))
		}
		if a == b {
			continue
		}
		if n++; n > 20 {
			out.WriteString("...\n")
			break
		}
		fmt.Fprintf(&out, "%s (line %d):\n got %s\nwant %s\n", strings.Join(path, "."), i+1, strings.TrimSpace(a), strings.TrimSpace(b))
	}
	return out.String()
}
