package core

import (
	"context"
	"math"
	"testing"

	"questgo/internal/lattice"
	"questgo/internal/obs"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.Nx = 0
	if bad.Validate() == nil {
		t.Fatal("Nx=0 should be invalid")
	}
	bad = good
	bad.L = 0
	if bad.Validate() == nil {
		t.Fatal("L=0 should be invalid")
	}
	bad = good
	bad.Beta = -1
	if bad.Validate() == nil {
		t.Fatal("beta<0 should be invalid")
	}
	bad = good
	bad.MeasSweeps = 0
	if bad.Validate() == nil {
		t.Fatal("MeasSweeps=0 should be invalid")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestHalfFillingDensity(t *testing.T) {
	// Particle-hole symmetry pins <n> = 1 at mu = 0 on a bipartite
	// lattice, independent of statistics quality.
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 4, 4
	cfg.WarmSweeps, cfg.MeasSweeps = 20, 60
	cfg.L = 10
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if math.Abs(res.Density-1) > 0.02 {
		t.Fatalf("half-filled density = %v +- %v", res.Density, res.DensityErr)
	}
	if res.AvgSign != 1 {
		t.Fatalf("sign should be exactly 1 at half filling, got %v", res.AvgSign)
	}
}

func TestDQMCMatchesExactDiagonalization(t *testing.T) {
	// End-to-end validation: 2x2 half-filled cluster, U = 4, beta = 2.
	// ED gives the exact thermal averages of the Hamiltonian the HS
	// decomposition samples; DQMC must agree within Trotter (dtau^2) plus
	// statistical error.
	lat := lattice.NewSquare(2, 2, 1)
	ed := newED(lat, 4, 0)
	beta := 2.0
	wantDocc := ed.doubleOcc(beta)
	wantCzz1 := ed.czz(beta, 1, 0)

	cfg := Config{
		Nx: 2, Ny: 2, Layers: 1, T: 1,
		U: 4, Mu: 0, Beta: beta, L: 40,
		WarmSweeps: 300, MeasSweeps: 2000,
		ClusterK: 10, Delay: 4, PrePivot: true,
		Seed: 12345,
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()

	if math.Abs(res.Density-1) > 3*res.DensityErr+1e-6 {
		t.Fatalf("density %v +- %v, want 1", res.Density, res.DensityErr)
	}
	tol := 3*res.DoubleOccErr + 0.01 // stat + Trotter allowance
	if math.Abs(res.DoubleOcc-wantDocc) > tol {
		t.Fatalf("double occupancy %v +- %v, ED %v", res.DoubleOcc, res.DoubleOccErr, wantDocc)
	}
	// Nearest-neighbor spin correlation (Czz index d = (1,0)).
	gotCzz1 := res.Czz[1]
	czzTol := 3*res.CzzErr[1] + 0.02
	if math.Abs(gotCzz1-wantCzz1) > czzTol {
		t.Fatalf("Czz(1,0) = %v +- %v, ED %v", gotCzz1, res.CzzErr[1], wantCzz1)
	}
	// Total energy: kinetic from ED = E - U*docc + U/4 correction... use
	// full energy instead. ED energy includes the -U/4 constant per site
	// from the (n-1/2)(n-1/2) form; DQMC Potential uses U*<n_up n_dn>.
	wantE := ed.energy(beta)
	gotE := res.Kinetic + cfg.U*(res.DoubleOcc-res.Density/2+0.25)
	eTol := 3*(res.KineticErr+cfg.U*res.DoubleOccErr) + 0.03
	if math.Abs(gotE-wantE) > eTol {
		t.Fatalf("energy %v, ED %v (tol %v)", gotE, wantE, eTol)
	}
	t.Logf("DQMC vs ED: docc %.4f/%.4f, Czz(1,0) %.4f/%.4f, E %.4f/%.4f",
		res.DoubleOcc, wantDocc, gotCzz1, wantCzz1, gotE, wantE)
}

func TestAntiferromagneticCorrelations(t *testing.T) {
	// At half filling the nearest-neighbor Czz must be negative (AF) and
	// S(pi,pi) must exceed the local moment (constructive staggered sum).
	cfg := Config{
		Nx: 4, Ny: 4, Layers: 1, T: 1,
		U: 4, Mu: 0, Beta: 3, L: 24,
		WarmSweeps: 100, MeasSweeps: 300,
		ClusterK: 8, Delay: 16, PrePivot: true,
		Seed: 777,
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.Czz[1] >= 0 {
		t.Fatalf("nearest-neighbor Czz = %v, expected negative (AF)", res.Czz[1])
	}
	if res.SAF <= res.LocalMoment {
		t.Fatalf("S(pi,pi) = %v should exceed local moment %v", res.SAF, res.LocalMoment)
	}
	// The checkerboard pattern: Czz(1,1) positive.
	if res.Czz[1+4*1] <= 0 {
		t.Fatalf("Czz(1,1) = %v, expected positive (checkerboard)", res.Czz[1+4])
	}
}

func TestProgressCallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 2, 2
	cfg.L = 4
	cfg.WarmSweeps, cfg.MeasSweeps = 3, 5
	var warm, meas int
	if _, err := Run(context.Background(), cfg, WithProgress(func(p Progress) {
		switch p.Stage {
		case "warmup":
			warm++
		case "measure":
			meas++
		}
	})); err != nil {
		t.Fatal(err)
	}
	if warm != 3 || meas != 5 {
		t.Fatalf("progress callbacks: warm=%d meas=%d", warm, meas)
	}
}

func TestProfilePopulated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 4, 4
	cfg.L = 10
	cfg.WarmSweeps, cfg.MeasSweeps = 5, 10
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		if res.Metrics.PhaseMS[p.String()] == 0 {
			t.Fatalf("phase %q empty", p)
		}
	}
	var total float64
	for _, v := range res.Metrics.PhasePercent {
		total += v
	}
	if math.Abs(total-100) > 1e-9 {
		t.Fatalf("percentages sum to %v", total)
	}
}

func TestMultilayerRuns(t *testing.T) {
	cfg := Config{
		Nx: 2, Ny: 2, Layers: 3, T: 1, Tperp: 0.5,
		U: 4, Mu: 0, Beta: 2, L: 8,
		WarmSweeps: 10, MeasSweeps: 20,
		ClusterK: 4, Delay: 8, PrePivot: true,
		Seed: 5,
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if len(res.LayerDensity) != 3 {
		t.Fatalf("layer densities: %v", res.LayerDensity)
	}
	// Symmetric stack: outer layers equal by reflection symmetry
	// (statistically).
	if math.Abs(res.LayerDensity[0]-res.LayerDensity[2]) > 0.1 {
		t.Fatalf("outer layers should be symmetric: %v", res.LayerDensity)
	}
	if math.Abs(res.Density-1) > 0.05 {
		t.Fatalf("multilayer half filling violated: %v", res.Density)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 2, 2
	cfg.L = 8
	cfg.WarmSweeps, cfg.MeasSweeps = 5, 10
	r1, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.DoubleOcc != r2.DoubleOcc || r1.Kinetic != r2.Kinetic {
		t.Fatal("same seed must reproduce results exactly")
	}
	cfg.Seed++
	r3, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.DoubleOcc == r3.DoubleOcc {
		t.Fatal("different seeds should differ")
	}
}

func runOnce(cfg Config) (*Results, error) {
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run(), nil
}

// TestTrotterConvergence: halving dtau should move double occupancy toward
// the ED value quadratically; here we just require the finer discretization
// to be at least as close (within error bars).
func TestTrotterConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	lat := lattice.NewSquare(2, 2, 1)
	ed := newED(lat, 6, 0)
	want := ed.doubleOcc(1.5)
	var errs []float64
	for _, l := range []int{6, 24} {
		cfg := Config{
			Nx: 2, Ny: 2, Layers: 1, T: 1,
			U: 6, Mu: 0, Beta: 1.5, L: l,
			WarmSweeps: 200, MeasSweeps: 1500,
			ClusterK: 6, Delay: 4, PrePivot: true,
			Seed: 99,
		}
		res, err := runOnce(cfg)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, math.Abs(res.DoubleOcc-want))
	}
	if errs[1] > errs[0]+0.01 {
		t.Fatalf("Trotter error did not shrink: dtau=0.25 -> %v, dtau=0.0625 -> %v", errs[0], errs[1])
	}
}
