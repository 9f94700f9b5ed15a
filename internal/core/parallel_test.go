package core

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"questgo/internal/obs"
)

func parallelTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 4, 4
	cfg.U, cfg.Beta, cfg.L = 4, 2, 10
	cfg.WarmSweeps, cfg.MeasSweeps = 20, 60
	return cfg
}

func TestRunParallelMergesWalkers(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	cfg := parallelTestConfig()
	res, err := Run(context.Background(), cfg, WithWalkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Density-1) > 0.03 {
		t.Fatalf("merged density = %v", res.Density)
	}
	if res.DoubleOccErr <= 0 {
		t.Fatal("merged error bars must be positive with >= 2 walkers")
	}
	if res.AvgSign != 1 {
		t.Fatalf("merged sign %v", res.AvgSign)
	}
	if len(res.Nk) != 16 || len(res.NkErr) != 16 {
		t.Fatal("merged vector shapes wrong")
	}
}

func TestRunParallelDeterministic(t *testing.T) {
	cfg := parallelTestConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 5, 10
	r1, err := Run(context.Background(), cfg, WithWalkers(2))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), cfg, WithWalkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if r1.DoubleOcc != r2.DoubleOcc || r1.Kinetic != r2.Kinetic {
		t.Fatal("parallel runs must be deterministic in the seed")
	}
}

func TestRunParallelWalkersDiffer(t *testing.T) {
	// Individual walkers must be genuinely independent chains.
	cfg := parallelTestConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 5, 10
	a, err := New(withSeed(cfg, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(withSeed(cfg, cfg.Seed+0x9e3779b97f4a7c15))
	if err != nil {
		t.Fatal(err)
	}
	if a.Run().DoubleOcc == b.Run().DoubleOcc {
		t.Fatal("derived walker seeds produced identical chains")
	}
}

func withSeed(cfg Config, s uint64) Config {
	cfg.Seed = s
	return cfg
}

func TestRunParallelSingleWalker(t *testing.T) {
	cfg := parallelTestConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 3, 6
	res, err := Run(context.Background(), cfg, WithWalkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || math.IsNaN(res.Density) {
		t.Fatal("single-walker path broken")
	}
}

func TestRunParallelValidation(t *testing.T) {
	bad := parallelTestConfig()
	bad.Nx = 0
	if _, err := Run(context.Background(), bad, WithWalkers(2)); err == nil {
		t.Fatal("invalid config should fail")
	}
}

func TestMergeResultsShapeMismatch(t *testing.T) {
	cfg := parallelTestConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 4
	r1, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Nx = 2 // different lattice => different vector shapes
	r2, err := runOnce(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeResults([]*Results{r1, r2}); err == nil {
		t.Fatal("mismatched shapes must be rejected")
	}
}

// TestMergeResultsSumsProfiles: the merged run's phase breakdown is the sum
// of the runs' (not walker 0's alone), and a run without one adds nothing.
func TestMergeResultsSumsProfiles(t *testing.T) {
	cfg := parallelTestConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 4
	mk := func(wrap, meas time.Duration) *Results {
		r, err := runOnce(cfg)
		if err != nil {
			t.Fatal(err)
		}
		col := obs.New()
		col.Charge(obs.PhaseWrap, wrap)
		col.Charge(obs.PhaseMeasure, meas)
		r.Metrics = col.Metrics()
		return r
	}
	bare := mk(0, 0)
	bare.Metrics = nil
	m, err := MergeResults([]*Results{mk(3*time.Second, time.Second), bare, mk(time.Second, 5*time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if w, me := m.Metrics.PhaseMS["wrap"], m.Metrics.PhaseMS["measure"]; w != 4000 || me != 6000 {
		t.Fatalf("merged phase_ms wrap %v measure %v, want 4000 and 6000", w, me)
	}
	if pc := m.Metrics.PhasePercent["wrap"]; pc != 40 {
		t.Fatalf("merged wrapping share %v%%, want 40%% (walker 0 alone reads 75%%)", pc)
	}
}

func TestMergeResultsErrorShrinks(t *testing.T) {
	// Doubling walkers should not inflate the error (statistically it
	// shrinks ~1/sqrt(W); tolerate noise by requiring no blow-up).
	cfg := parallelTestConfig()
	cfg.MeasSweeps = 40
	r2, err := Run(context.Background(), cfg, WithWalkers(2))
	if err != nil {
		t.Fatal(err)
	}
	r6, err := Run(context.Background(), cfg, WithWalkers(6))
	if err != nil {
		t.Fatal(err)
	}
	if r6.DoubleOccErr > 3*r2.DoubleOccErr {
		t.Fatalf("more walkers should not hurt: err(6) = %v vs err(2) = %v",
			r6.DoubleOccErr, r2.DoubleOccErr)
	}
}

// TestMergeResultsErrorRule pins the merged error: the walkers' own errors
// in quadrature over W when the walkers agree, and the standard error
// across their means when that is larger — element-wise for vectors.
func TestMergeResultsErrorRule(t *testing.T) {
	mk := func(x, e float64) *Results {
		return &Results{
			Density: x, DensityErr: e, SAF: x, SAFErr: e,
			Nk: []float64{x, 1}, NkErr: []float64{e, e},
		}
	}
	agree, err := MergeResults([]*Results{mk(1, 0.3), mk(1, 0.4)})
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.25; math.Abs(agree.DensityErr-want) > 1e-15 || math.Abs(agree.NkErr[0]-want) > 1e-15 {
		t.Fatalf("agreeing walkers: density error %v, n_k error %v, want √(0.3² + 0.4²)/2 = %v",
			agree.DensityErr, agree.NkErr[0], want)
	}
	apart, err := MergeResults([]*Results{mk(1, 0.3), mk(3, 0.4)})
	if err != nil {
		t.Fatal(err)
	}
	// Means 1 and 3: standard error 1 across the walkers, above 0.25.
	if apart.Density != 2 || apart.SAFErr != 1 || apart.NkErr[0] != 1 || math.Abs(apart.NkErr[1]-0.25) > 1e-15 {
		t.Fatalf("disagreeing walkers: density %v ± %v, n_k errors %v; want 2 ± 1 and [1 0.25]",
			apart.Density, apart.SAFErr, apart.NkErr)
	}
}
