package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
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
// an observable, a stability sample, an op count or a modeled device cost
// fails here, naming the fields. The rows are the configurations whose
// bits earlier changes claimed to keep, with sweeps cut to fit tier-1:
//   - dynamics_4x4: 4x4, U = 4, mu = 0.5, beta = 4, L = 40, k = 10,
//     G(d, tau) measured, on the host and on two devices with graphs;
//   - hubbard_4x4: the same lattice at half filling without dynamics
//     (inline slice steps), on the host, on one device (both spin sectors
//     on one card), on two (per-spin sharding) and on four (per-slice-block
//     sharding), graphs on;
//   - lowtemp_6x6: 6x6, U = 6, beta = 16, L = 160, k = 8 with the residual
//     check every 4 boundaries (forked slice steps), autopilot off and on,
//     on the host and on two devices with graphs.
//
// GOLDEN_REGEN=1 rewrites the files of the running build's family instead,
// and logs (go test -v) for each document every field that moved from the
// file it replaces (regenReport); a change that should move bits
// regenerates once per family (with and without -tags purego) and says
// which fields moved and why.
func TestResultsGolden(t *testing.T) {
	dir := filepath.Join("testdata", "golden", goldenFamily())
	regen := os.Getenv("GOLDEN_REGEN") != ""
	if _, err := os.Stat(dir); os.IsNotExist(err) && !regen {
		t.Skipf("no golden documents for arithmetic family %s; GOLDEN_REGEN=1 go test -run TestResultsGolden ./internal/core writes them", goldenFamily())
	}
	dynamics := func(c *Config) {
		c.Mu, c.Beta, c.L, c.ClusterK = 0.5, 4, 40, 10
		c.WarmSweeps, c.MeasSweeps = 10, 20
		c.MeasureDynamics = true
	}
	hubbard := func(c *Config) {
		c.Beta, c.L, c.ClusterK = 4, 40, 10
		c.WarmSweeps, c.MeasSweeps = 10, 20
	}
	lowtemp := func(c *Config) {
		c.Nx, c.Ny, c.U, c.Beta, c.L, c.ClusterK = 6, 6, 6, 16, 160, 8
		c.WarmSweeps, c.MeasSweeps = 2, 4
		c.StabilityCheckEvery = 4
	}
	for _, e := range []struct {
		name      string
		cfg       func(*Config)
		devices   int
		autopilot bool
	}{
		{"dynamics_4x4_host", dynamics, 0, false},
		{"dynamics_4x4_devices2_graphs", dynamics, 2, false},
		{"hubbard_4x4_host", hubbard, 0, false},
		{"hubbard_4x4_devices1_graphs", hubbard, 1, false},
		{"hubbard_4x4_devices2_graphs", hubbard, 2, false},
		{"hubbard_4x4_devices4_graphs", hubbard, 4, false},
		{"lowtemp_6x6_host", lowtemp, 0, false},
		{"lowtemp_6x6_devices2_graphs", lowtemp, 2, false},
		{"lowtemp_6x6_autopilot_host", lowtemp, 0, true},
		{"lowtemp_6x6_autopilot_devices2_graphs", lowtemp, 2, true},
	} {
		cfg := DefaultConfig()
		e.cfg(&cfg)
		cfg.Devices, cfg.UseGraphs = e.devices, e.devices > 0
		cfg.Autopilot = e.autopilot
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		got := goldenDoc(t, res)
		path := filepath.Join(dir, e.name+".json")
		if regen {
			if old, err := os.ReadFile(path); err == nil {
				t.Logf("%s/%s.json:\n%s", goldenFamily(), e.name, regenReport(string(got), string(old)))
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
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
	var out strings.Builder
	n := 0
	movedLines(got, want, func(path string, i int, a, b string) bool {
		if n++; n > 20 {
			out.WriteString("...\n")
			return false
		}
		fmt.Fprintf(&out, "%s (line %d):\n got %s\nwant %s\n", path, i+1, strings.TrimSpace(a), strings.TrimSpace(b))
		return true
	})
	return out.String()
}

// regenReport lists every field of a regenerated document got that moved
// from the file want it replaces: its old and new value and, for numbers,
// the relative change. It ends with the largest relative change of a
// floating-point field and whether any integer or decision field moved (a
// count, a flag, a reason: anything written without a fraction or an
// exponent on both sides), which rounding alone never moves.
func regenReport(got, want string) string {
	var out strings.Builder
	var exact []string
	floats, maxRel := 0, 0.0
	movedLines(got, want, func(path string, i int, a, b string) bool {
		a, b = fieldValue(a), fieldValue(b)
		fmt.Fprintf(&out, "  %s (line %d): %s -> %s", path, i+1, b, a)
		rel := math.NaN()
		x, errX := strconv.ParseFloat(b, 64)
		y, errY := strconv.ParseFloat(a, 64)
		if errX == nil && errY == nil && x != 0 {
			rel = (y - x) / math.Abs(x)
			fmt.Fprintf(&out, " (%+.3g relative)", rel)
		}
		out.WriteString("\n")
		if isFloatLiteral(a) || isFloatLiteral(b) {
			floats++
			if !math.IsNaN(rel) {
				maxRel = max(maxRel, math.Abs(rel))
			}
		} else {
			exact = append(exact, path)
		}
		return true
	})
	if floats+len(exact) == 0 {
		return "  no field moved\n"
	}
	if g, w := strings.Count(got, "\n"), strings.Count(want, "\n"); g != w {
		fmt.Fprintf(&out, "  %d lines -> %d: past the first inserted or removed line the fields above are compared out of place\n", w, g)
	}
	fmt.Fprintf(&out, "  %d fields moved; ", floats+len(exact))
	if floats > 0 {
		fmt.Fprintf(&out, "largest relative change of a floating-point field %.3g\n", maxRel)
	} else {
		out.WriteString("no floating-point field moved\n")
	}
	if len(exact) == 0 {
		out.WriteString("  no integer or decision field moved\n")
	} else {
		fmt.Fprintf(&out, "  integer or decision fields moved: %s\n", strings.Join(exact, ", "))
	}
	return out.String()
}

// fieldValue is the value a document line holds, without its key and its
// trailing comma.
func fieldValue(line string) string {
	line = strings.TrimSpace(line)
	if k, v, ok := strings.Cut(line, `": `); ok && strings.HasPrefix(k, `"`) {
		line = v
	}
	return strings.TrimSuffix(line, ",")
}

// isFloatLiteral reports whether a JSON value is a number written with a
// fraction or an exponent.
func isFloatLiteral(v string) bool {
	_, err := strconv.ParseFloat(v, 64)
	return err == nil && strings.ContainsAny(v, ".eE")
}

// movedLines calls f with each line position at which got and want differ
// — the key path that holds want's line there, the line's index and the two
// lines — until f returns false.
func movedLines(got, want string, f func(path string, i int, a, b string) bool) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	var path []string // the keys open above the current line
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
		if a != b && !f(strings.Join(path, "."), i, a, b) {
			return
		}
	}
}

// TestRegenReport: the regeneration report names each moved field with its
// old and new value, takes the largest relative change over the
// floating-point fields only, and lists the integer and decision fields
// that moved.
func TestRegenReport(t *testing.T) {
	want := "{\n  \"a\": 1.5,\n  \"m\": {\n    \"n\": 10,\n    \"why\": \"grow\"\n  },\n  \"same\": 2\n}\n"
	got := "{\n  \"a\": 1.5000000003,\n  \"m\": {\n    \"n\": 9,\n    \"why\": \"shrink\"\n  },\n  \"same\": 2\n}\n"
	r := regenReport(got, want)
	for _, line := range []string{
		"  a (line 2): 1.5 -> 1.5000000003 (+2e-10 relative)\n",
		"  m.n (line 4): 10 -> 9 (-0.1 relative)\n",
		"  m.why (line 5): \"grow\" -> \"shrink\"\n",
		"  3 fields moved; largest relative change of a floating-point field 2e-10\n",
		"  integer or decision fields moved: m.n, m.why\n",
	} {
		if !strings.Contains(r, line) {
			t.Errorf("report lacks %q:\n%s", line, r)
		}
	}
	if r := regenReport(want, want); r != "  no field moved\n" {
		t.Errorf("unchanged document: %q", r)
	}
}
