package core

import (
	"context"
	"math"
	"testing"

	"questgo/internal/lattice"
)

// TestAttractiveMatchesED validates the charge-channel HS decoupling end
// to end: a 2x2 cluster with U = -4 against exact diagonalization of the
// same Hamiltonian H_K + U (n_up - 1/2)(n_dn - 1/2).
func TestAttractiveMatchesED(t *testing.T) {
	lat := lattice.NewSquare(2, 2, 1)
	ed := newED(lat, -4, 0)
	beta := 2.0
	wantDocc := ed.doubleOcc(beta)
	if wantDocc <= 0.25 {
		t.Fatalf("sanity: attraction must enhance double occupancy, ED gives %v", wantDocc)
	}

	cfg := Config{
		Nx: 2, Ny: 2, Layers: 1, T: 1,
		U: -4, Mu: 0, Beta: beta, L: 40,
		WarmSweeps: 300, MeasSweeps: 2000,
		ClusterK: 10, Delay: 4, PrePivot: true,
		Seed: 2024,
	}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.AvgSign != 1 {
		t.Fatalf("attractive model must be sign free, got %v", res.AvgSign)
	}
	if math.Abs(res.Density-1) > 3*res.DensityErr+1e-6 {
		t.Fatalf("density %v, want 1 (mu = 0 in the symmetric form)", res.Density)
	}
	tol := 3*res.DoubleOccErr + 0.012
	if math.Abs(res.DoubleOcc-wantDocc) > tol {
		t.Fatalf("double occupancy %v +- %v, ED %v", res.DoubleOcc, res.DoubleOccErr, wantDocc)
	}
	t.Logf("attractive DQMC vs ED: docc %.4f / %.4f", res.DoubleOcc, wantDocc)
}

// TestAttractiveSuppressesSpinEnhancesPairs: compared with the repulsive
// model at the same |U|, the attractive model must show a smaller local
// moment and larger double occupancy.
func TestAttractiveSuppressesSpinEnhancesPairs(t *testing.T) {
	run := func(u float64) *Results {
		cfg := Config{
			Nx: 4, Ny: 4, Layers: 1, T: 1,
			U: u, Mu: 0, Beta: 2, L: 16,
			WarmSweeps: 50, MeasSweeps: 150,
			ClusterK: 8, Delay: 16, PrePivot: true,
			Seed: 99,
		}
		res, err := runOnce(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rep := run(4)
	att := run(-4)
	if att.DoubleOcc <= rep.DoubleOcc {
		t.Fatalf("attraction should enhance pairs: %v vs %v", att.DoubleOcc, rep.DoubleOcc)
	}
	if att.LocalMoment >= rep.LocalMoment {
		t.Fatalf("attraction should suppress moments: %v vs %v", att.LocalMoment, rep.LocalMoment)
	}
	if att.SAF >= rep.SAF {
		t.Fatalf("attraction should suppress S(pi,pi): %v vs %v", att.SAF, rep.SAF)
	}
	if att.AvgSign != 1 {
		t.Fatalf("attractive sign = %v", att.AvgSign)
	}
}

// TestAttractiveDopedSignFree: the headline property — away from half
// filling the attractive model keeps sign exactly one while the repulsive
// model develops a sign problem (not asserted here; its average sign is
// merely < 1 at stronger parameters than these).
func TestAttractiveDopedSignFree(t *testing.T) {
	cfg := Config{
		Nx: 4, Ny: 4, Layers: 1, T: 1,
		U: -4, Mu: -1.0, Beta: 3, L: 24,
		WarmSweeps: 50, MeasSweeps: 150,
		ClusterK: 8, Delay: 16, PrePivot: true,
		Seed: 7,
	}
	res, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgSign != 1 {
		t.Fatalf("doped attractive model must stay sign free, got %v", res.AvgSign)
	}
	if res.Density >= 1 {
		t.Fatalf("mu = -1 should dope below half filling: %v", res.Density)
	}
}

// TestAttractiveErrorBarsNonNegative: error bars scale with |U|, not U. For
// U < 0 the potential-energy error must stay non-negative and must widen,
// not shrink, the total-energy error — on the single-walker path and the
// merged one alike.
func TestAttractiveErrorBarsNonNegative(t *testing.T) {
	cfg := Config{
		Nx: 2, Ny: 2, Layers: 1, T: 1,
		U: -4, Mu: 0, Beta: 2, L: 8,
		WarmSweeps: 10, MeasSweeps: 40,
		ClusterK: 4, Delay: 4, PrePivot: true,
		Seed: 5,
	}
	for walkers := 1; walkers <= 2; walkers++ {
		res, err := Run(context.Background(), cfg, WithWalkers(walkers))
		if err != nil {
			t.Fatal(err)
		}
		if res.DoubleOccErr <= 0 {
			t.Fatalf("walkers=%d: test needs a nonzero docc error, got %v", walkers, res.DoubleOccErr)
		}
		if want := math.Abs(cfg.U) * res.DoubleOccErr; res.PotentialErr != want {
			t.Fatalf("walkers=%d: PotentialErr = %v, want |U|*DoubleOccErr = %v", walkers, res.PotentialErr, want)
		}
		if res.EnergyErr < res.KineticErr || res.EnergyErr != res.KineticErr+res.PotentialErr {
			t.Fatalf("walkers=%d: EnergyErr %v must be KineticErr %v + PotentialErr %v",
				walkers, res.EnergyErr, res.KineticErr, res.PotentialErr)
		}
	}
}
