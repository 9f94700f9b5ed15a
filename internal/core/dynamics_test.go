package core

import (
	"context"
	"math"
	"slices"
	"testing"
)

func TestMeasureDynamicsShapes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 4, 4
	cfg.U, cfg.Beta, cfg.L = 2, 2, 16
	cfg.ClusterK = 4
	cfg.WarmSweeps, cfg.MeasSweeps = 10, 20
	cfg.MeasureDynamics = true
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	// tau = 4, 8 slices (up to L/2 = 8 in steps of k = 4).
	if len(res.DisplacedTaus) != 2 || res.DisplacedTaus[0] != 4 || res.DisplacedTaus[1] != 8 {
		t.Fatalf("DisplacedTaus = %v", res.DisplacedTaus)
	}
	if len(res.GdTau) != 2 || len(res.GdTau[0]) != 16 {
		t.Fatalf("GdTau shape wrong: %d x %d", len(res.GdTau), len(res.GdTau[0]))
	}
	// Local G(0, tau) decays with tau and stays in (0, 1).
	g1, g2 := res.GdTau[0][0], res.GdTau[1][0]
	if !(g1 > 0 && g1 < 1 && g2 > 0 && g2 < g1) {
		t.Fatalf("local displaced G not decaying: %v -> %v", g1, g2)
	}
	for _, e := range res.GdTauErr[0] {
		if math.IsNaN(e) || e < 0 {
			t.Fatalf("bad error bar %v", e)
		}
	}
}

func TestMeasureDynamicsOffByDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 2, 2
	cfg.L = 8
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 4
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.GdTau != nil || res.DisplacedTaus != nil {
		t.Fatal("dynamics measured without being requested")
	}
}

// TestDynamicsSurvivesClusterResize: a cluster-size change during
// measurement — what the autopilot's shrink does between sweeps — keeps the
// tau grid fixed at the first measurement sweep's, so the run completes
// with the same taus instead of pushing a G(d, tau) vector of a new length.
func TestDynamicsSurvivesClusterResize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 2, 2
	cfg.Beta, cfg.L, cfg.ClusterK = 2, 20, 10
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 6
	cfg.MeasureDynamics = true
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background(), func(p Progress) {
		if p.Stage == "measure" && p.Sweep == 3 {
			sim.sweeper.SetClusterK(5)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sim.ClusterK() != 5 {
		t.Fatalf("cluster size %d after the resize, want 5", sim.ClusterK())
	}
	if !slices.Equal(res.DisplacedTaus, []int{10}) || len(res.GdTau) != 1 {
		t.Fatalf("DisplacedTaus = %v with %d maps, want [10] as before the resize", res.DisplacedTaus, len(res.GdTau))
	}
}

// TestLayerDensitySignWeighted: the layer densities are sign-weighted
// ratios like the density, so on a single plane away from half filling,
// where the sign is not 1, the one layer's density is the density.
func TestLayerDensitySignWeighted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mu, cfg.Beta, cfg.L = 0.5, 4, 40
	cfg.WarmSweeps, cfg.MeasSweeps = 10, 20
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgSign >= 1 {
		t.Fatalf("avg sign %v: the test needs a run with a sign problem", res.AvgSign)
	}
	if len(res.LayerDensity) != 1 || math.Abs(res.LayerDensity[0]-res.Density) > 1e-12 {
		t.Fatalf("layer density %v, density %v", res.LayerDensity, res.Density)
	}
}
