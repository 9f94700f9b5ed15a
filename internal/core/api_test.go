package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
)

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero lattice", func(c *Config) { c.Nx = 0 }},
		{"negative ny", func(c *Config) { c.Ny = -2 }},
		{"zero layers", func(c *Config) { c.Layers = 0 }},
		{"no time slices", func(c *Config) { c.L = 0 }},
		{"negative beta", func(c *Config) { c.Beta = -1 }},
		{"nan beta", func(c *Config) { c.Beta = math.NaN() }},
		{"inf beta", func(c *Config) { c.Beta = math.Inf(1) }},
		{"nan hopping", func(c *Config) { c.T = math.NaN() }},
		{"inf interaction", func(c *Config) { c.U = math.Inf(-1) }},
		{"nan mu", func(c *Config) { c.Mu = math.NaN() }},
		{"inf ty", func(c *Config) { c.Ty = math.Inf(1) }},
		{"nan tprime", func(c *Config) { c.TPrime = math.NaN() }},
		{"nan tperp", func(c *Config) { c.Tperp = math.NaN() }},
		{"negative warmup", func(c *Config) { c.WarmSweeps = -1 }},
		{"no measurement sweeps", func(c *Config) { c.MeasSweeps = 0 }},
		{"negative cluster k", func(c *Config) { c.ClusterK = -1 }},
		{"negative delay", func(c *Config) { c.Delay = -4 }},
		{"negative stability cadence", func(c *Config) { c.StabilityCheckEvery = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("Validate accepted a %s config", tc.name)
			}
		})
	}
}

// TestMetricsJSONRoundTrip runs a small simulation and checks that the
// metrics document survives results serialization with the stable key set:
// every phase appears in phase_ms, the op counters are present, and the
// values match the in-memory document.
func TestMetricsJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 2, 2
	cfg.L = 8
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 4
	cfg.StabilityCheckEvery = 1
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("Results.Metrics not populated")
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics struct {
			WallMS        float64            `json:"wall_ms"`
			PhaseMS       map[string]float64 `json:"phase_ms"`
			PhaseCoverage float64            `json:"phase_coverage"`
			Ops           map[string]int64   `json:"ops"`
			Stability     map[string]float64 `json:"stability"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	m := doc.Metrics
	if m.WallMS != res.Metrics.WallMS {
		t.Fatalf("wall_ms %v != %v", m.WallMS, res.Metrics.WallMS)
	}
	for _, ph := range []string{"wrap", "flush", "cluster", "refresh", "measure"} {
		if _, ok := m.PhaseMS[ph]; !ok {
			t.Fatalf("phase_ms missing %q: %v", ph, m.PhaseMS)
		}
	}
	for _, op := range []string{"gemm_flops", "udt_steps", "wraps", "sweeps"} {
		if m.Ops[op] <= 0 {
			t.Fatalf("ops[%s] = %d, want > 0", op, m.Ops[op])
		}
	}
	if m.Ops["sweeps"] != int64(cfg.WarmSweeps+cfg.MeasSweeps) {
		t.Fatalf("ops[sweeps] = %d, want %d", m.Ops["sweeps"], cfg.WarmSweeps+cfg.MeasSweeps)
	}
	if m.Stability["strat_residual_samples"] <= 0 {
		t.Fatalf("stability check never sampled: %v", m.Stability)
	}
}

// TestPhaseBreakdownCoversWall is the acceptance check that the per-phase
// timings account for the run: their sum must be within 10% of the
// collector's wall time on a single-walker run. Work running on an idle
// worker beside the chain is off the wall-clock phases; the chain's
// hand-off to it and its wait at the join are charged to the phase the work
// belongs to (refresh for the residual check and the stacks' roll, measure
// for the boundary hooks). At 4x4, below update's spin-fork crossover, the
// rows put different work on the worker: with the residual check off, the
// roll and the boundary measurements hold it (every = 0); at every boundary
// the check competes for it (every = 1); with one measurement after each
// sweep, the roll holds it alone. The runs last tens of milliseconds, so one
// scheduler delay between two phases, on a loaded machine, cannot take a
// tenth of the wall. (The 3-6% of the wall the phases used to miss lay
// almost all outside the sweeps: the per-sweep reduction of the
// measurements was not timed. It is measure time now.)
func TestPhaseBreakdownCoversWall(t *testing.T) {
	for _, row := range []struct {
		every      int
		boundaries bool
	}{{0, true}, {1, true}, {0, false}} {
		every := row.every
		cfg := DefaultConfig()
		cfg.Nx, cfg.Ny = 4, 4
		cfg.L = 16
		cfg.WarmSweeps, cfg.MeasSweeps = 20, 80
		cfg.StabilityCheckEvery = every
		cfg.MeasureBoundaries = row.boundaries
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := res.Metrics
		var sum float64
		for _, ms := range m.PhaseMS {
			sum += ms
		}
		if m.WallMS <= 0 {
			t.Fatalf("every=%d, boundaries=%v: wall_ms = %v", every, row.boundaries, m.WallMS)
		}
		cov := sum / m.WallMS
		if cov < 0.9 || cov > 1.02 {
			t.Fatalf("every=%d, boundaries=%v: phase sum %.2f ms covers %.1f%% of wall %.2f ms, want within 10%%",
				every, row.boundaries, sum, 100*cov, m.WallMS)
		}
		if math.Abs(cov-m.PhaseCoverage) > 1e-9 {
			t.Fatalf("every=%d, boundaries=%v: PhaseCoverage %v inconsistent with sum/wall %v", every, row.boundaries, m.PhaseCoverage, cov)
		}
		if (m.Stability.StratResidualSamples > 0) != (every > 0) {
			t.Fatalf("every=%d, boundaries=%v: %d residual samples", every, row.boundaries, m.Stability.StratResidualSamples)
		}
	}
}

func TestRunCancelCheckpoints(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 2, 2
	cfg.L = 8
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 1000
	path := filepath.Join(t.TempDir(), "ck.json.gz")
	ctx, cancel := context.WithCancel(context.Background())
	sweeps := 0
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.RunContext(ctx, func(p Progress) {
		sweeps++
		if sweeps == 5 {
			cancel()
		}
	})
	cancel()
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if err := sim.Checkpoint().Save(path); err != nil {
		t.Fatalf("checkpoint not written on cancel: %v", err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(ck)
	if err != nil {
		t.Fatal(err)
	}
	if res := resumed.Run(); res.AvgSign == 0 {
		t.Fatal("resumed run produced no statistics")
	}
}
