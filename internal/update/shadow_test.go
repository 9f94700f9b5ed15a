package update_test

import (
	"testing"

	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
	"questgo/internal/update"
)

// TestShadowChainSeparable: a shadow chain for the separable kinetic
// propagator. A Sweeper on the dense kinetic GEMMs (update.DenseKinetic)
// and one on the Kronecker-factor products step from one field and one RNG
// at 12x12, U = 4, beta = 4, L = 40, k = 10, the large_dense workload's
// chain. The two round differently, so G moves by rounding; a Metropolis
// decision can differ only where a ratio falls within that rounding of its
// uniform draw. So the chains must make the same decisions throughout —
// equal field, counters and sign after every sweep — with the sectors'
// Green's functions within shadowTol relative at every cluster boundary,
// and not equal at all of them (the separable path did run).
//
// shadowTol is this chain's rounding floor with headroom, not the change's
// error: a dense chain over Bkin^T instead of Bkin (equal to 1.6e-16)
// already differs from the dense one by 1.2e-13 to 3.8e-12 at these
// boundaries over six sweeps, and the separable one by 1.3e-13 to 2.6e-12
// (EXPERIMENTS.md, "the separable kinetic propagator"). The stratified G
// amplifies a one-ulp change of B by ~10^4 here, so 1e-12 would reject
// rounding.
func TestShadowChainSeparable(t *testing.T) {
	const shadowTol = 1e-11
	lat := lattice.NewSquare(12, 12, 1)
	m, err := hubbard.NewModel(lat, 4, 0, 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(m)
	if p.Sep == nil {
		t.Fatal("12x12 propagator has no Kronecker factors")
	}
	f0 := hubbard.NewRandomField(m.L, m.N(), rng.New(97))
	type chain struct {
		f  *hubbard.Field
		sw *update.Sweeper
		gs []*mat.Dense // this sweep's boundary G's, up then down
	}
	mk := func(p *hubbard.Propagator) *chain {
		c := &chain{f: f0.Clone()}
		c.sw = update.NewSweeper(p, c.f, rng.New(101), update.Options{ClusterK: 10, PrePivot: true})
		c.sw.SetBoundaryHook(func(gup, gdn *mat.Dense, _ float64) {
			c.gs = append(c.gs, gup.Clone(), gdn.Clone())
		})
		return c
	}
	dense, sep := mk(update.DenseKinetic(p)), mk(p)
	worst, moved := 0.0, false
	for sweep := 0; sweep < 4; sweep++ {
		dense.gs, sep.gs = dense.gs[:0], sep.gs[:0]
		dense.sw.Sweep()
		sep.sw.Sweep()
		if len(sep.gs) != len(dense.gs) || len(dense.gs) != 2*m.L/10 {
			t.Fatalf("sweep %d: %d and %d boundary snapshots, want %d", sweep, len(dense.gs), len(sep.gs), 2*m.L/10)
		}
		for i, gd := range dense.gs {
			d := mat.RelDiff(sep.gs[i], gd)
			if !(d <= shadowTol) {
				t.Fatalf("sweep %d boundary %d sector %d: ‖G_dense − G_sep‖/‖G_dense‖ = %g, want ≤ %g", sweep, i/2, i%2, d, shadowTol)
			}
			worst, moved = max(worst, d), moved || d != 0
		}
		da, dp := dense.sw.Counters()
		sa, sp := sep.sw.Counters()
		if da != sa || dp != sp || dense.sw.Sign() != sep.sw.Sign() {
			t.Fatalf("sweep %d: dense %d/%d sign %v, separable %d/%d sign %v", sweep, da, dp, dense.sw.Sign(), sa, sp, sep.sw.Sign())
		}
		for l := range dense.f.H {
			for i, h := range dense.f.H[l] {
				if sep.f.H[l][i] != h {
					t.Fatalf("sweep %d: a decision differs at slice %d site %d", sweep, l, i)
				}
			}
		}
	}
	if !moved {
		t.Fatal("the two chains agree bit for bit: the separable products never ran")
	}
	t.Logf("largest boundary ‖G_dense − G_sep‖/‖G_dense‖: %.2g", worst)
}
