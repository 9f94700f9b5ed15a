package greens

import (
	"errors"
	"math"
	"testing"

	"questgo/internal/blas"
	"questgo/internal/check"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// sliceChain returns B_1 ... B_L of spin sigma in application order.
func sliceChain(p *hubbard.Propagator, f *hubbard.Field, sigma hubbard.Spin) []*mat.Dense {
	bs := make([]*mat.Dense, p.Model.L)
	for i := range bs {
		bs[i] = p.BMatrix(sigma, f, i)
	}
	return bs
}

// bigSplit is DisplacedBigFloat of the slice chain of spin sigma cut after
// slice l, with the equal-time G(tau_l, tau_l) from GreenBigFloat of the
// rotated chain B_{l+1} ... B_L B_1 ... B_l.
func bigSplit(p *hubbard.Propagator, f *hubbard.Field, sigma hubbard.Spin, l int, prec uint) (fwd, rev, equal *mat.Dense) {
	bs := sliceChain(p, f, sigma)
	fwd, rev = DisplacedBigFloat(bs, l, prec)
	rotated := append(append([]*mat.Dense{}, bs[l:]...), bs[:l]...)
	return fwd, rev, GreenBigFloat(rotated, prec)
}

func TestDisplacedGreenMatchesBigFloat(t *testing.T) {
	// Strong coupling (U = 8, beta = 5, partial-product condition numbers
	// up to ~1e22): the two-sided evaluation must track the 256-bit
	// reference to near machine precision at *every* displacement. (Note
	// the reference must itself be computed end-to-end in high precision:
	// rounding G(0) to float64 before the chain multiplication injects
	// eps*||B_l...B_1|| of error — the very amplification the two-sided
	// formula exists to avoid.)
	p, f, _ := testChain(t, 2, 2, 8, 5, 25, 53)
	for _, l := range []int{1, 5, 12, 20, 24, 25} {
		got := SplitAt(p, f, hubbard.Up, l, 5).Forward()
		want, _, _ := bigSplit(p, f, hubbard.Up, l, 256)
		if d := mat.RelDiff(got, want); d > 1e-10 {
			t.Fatalf("l=%d: stable displaced G rel diff %g", l, d)
		}
	}
}

// TestDisplacedShortLastBlock: with l (and L - l) not multiples of k both
// chains end in a short block — the host block product at a depth other
// than k. Forward and reverse functions must still track the 256-bit
// reference.
func TestDisplacedShortLastBlock(t *testing.T) {
	p, f, _ := testChain(t, 2, 2, 6, 4, 25, 59)
	for _, k := range []int{4, 10} {
		for _, l := range []int{3, 13, 22} {
			sp := SplitAt(p, f, hubbard.Down, l, k)
			fwd, rev, _ := bigSplit(p, f, hubbard.Down, l, 256)
			if d := mat.RelDiff(sp.Forward(), fwd); !(d <= 1e-10) {
				t.Fatalf("k=%d l=%d: G(tau,0) rel diff %g", k, l, d)
			}
			if d := mat.RelDiff(sp.Reverse(), rev); !(d <= 1e-10) {
				t.Fatalf("k=%d l=%d: G(0,tau) rel diff %g", k, l, d)
			}
		}
	}
}

// TestSplitEqualMatchesBigFloat: the split's equal-time G(tau, tau) is the
// graded combine of its two halves, and must track the 256-bit rotated-chain
// reference at every cut, with k dividing neither half, at strong coupling
// (U = 8, beta = 5). At l = L it is G(0), bit for bit the stratified
// equal-time G of the cluster chain whenever k divides L.
func TestSplitEqualMatchesBigFloat(t *testing.T) {
	p, f, _ := testChain(t, 2, 2, 8, 5, 25, 53)
	for _, k := range []int{4, 5} {
		for _, l := range []int{1, 3, 12, 13, 22, 24, 25} {
			_, _, want := bigSplit(p, f, hubbard.Up, l, 256)
			if d := mat.RelDiff(SplitAt(p, f, hubbard.Up, l, k).Equal(), want); !(d <= 1e-10) {
				t.Fatalf("k=%d l=%d: G(tau,tau) rel diff %g", k, l, d)
			}
		}
	}
	g0 := green(t, NewClusterSet(p, f, hubbard.Down, 5).Chain(0), true)
	if !bitsEqual(SplitAt(p, f, hubbard.Down, p.Model.L, 5).Equal(), g0) {
		t.Fatal("split at l = L is not bit for bit the stratified G of the cluster chain")
	}
}

func TestDisplacedGreenAntiperiodicity(t *testing.T) {
	p, f, bs := testChain(t, 3, 3, 6, 3, 12, 67)
	g0 := green(t, bs, true)
	gBeta := SplitAt(p, f, hubbard.Up, p.Model.L, 4).Forward()
	want := mat.Identity(g0.Rows)
	want.Add(-1, g0)
	if d := mat.RelDiff(gBeta, want); d > 1e-9 {
		t.Fatalf("G(beta,0) != I - G(0): %g", d)
	}
}

// freeDisplaced builds the exact U = 0 displaced Green's function
// G(tau, 0) = e^{-tau*K} (I + e^{-beta*K})^{-1} spectrally.
func freeDisplaced(lat *lattice.Lattice, beta, tau float64) *mat.Dense {
	k := lat.KMatrix(0)
	eps, z := lapack.SymEig(k)
	n := lat.N()
	zg := z.Clone()
	gl := make([]float64, n)
	for i, e := range eps {
		// e^{-tau e} / (1 + e^{-beta e}), computed stably for both signs.
		if e >= 0 {
			gl[i] = math.Exp(-tau*e) / (1 + math.Exp(-beta*e))
		} else {
			gl[i] = math.Exp((beta-tau)*e) / (1 + math.Exp(beta*e))
		}
	}
	zg.ScaleCols(gl)
	g := mat.New(n, n)
	blas.Gemm(false, true, 1, zg, z, 0, g)
	return g
}

func TestDisplacedGreenFreeFermions(t *testing.T) {
	lat := lattice.NewSquare(4, 4, 1)
	beta, L := 6.0, 30
	model, err := hubbard.NewModel(lat, 0, 0, beta, L)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(model)
	f := hubbard.NewRandomField(L, model.N(), rng.New(2))
	dtau := beta / float64(L)
	for _, l := range []int{1, 10, 15, 30} {
		got := SplitAt(p, f, hubbard.Up, l, 10).Forward()
		want := freeDisplaced(lat, beta, dtau*float64(l))
		if d := mat.RelDiff(got, want); d > 1e-9 {
			t.Fatalf("free fermions l=%d: %g", l, d)
		}
	}
}

func TestDisplacedGreenPanicsOutOfRange(t *testing.T) {
	p, f, _ := testChain(t, 2, 2, 4, 1, 4, 73)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for l = 0")
		}
	}()
	SplitAt(p, f, hubbard.Up, 0, 2)
}

// TestSplitSingularReportsError: a split whose two-sided sum is singular
// keeps lapack.ErrSingular for Err. With P1 = I and P2 = -I the sums of
// Forward (P1^{-1} + P2), Reverse (P1 + P2^{-1}) and Equal (I + P1 P2) are
// all zero; with the after-tau chain empty and P1 = -I, green0's I + P1 is.
// Each method is checked on a fresh split, so the error is its own, and a
// regular split (P2 = I) keeps nil. Under qmcdebug a sanitizer may stop the
// non-finite G first, which counts as failing loudly too.
func TestSplitSingularReportsError(t *testing.T) {
	const n = 4
	negI := mat.Identity(n)
	negI.Scale(-1)
	udt := func(b *mat.Dense) *UDT { return Stratify([]*mat.Dense{b}, true) }
	for _, tc := range []struct {
		name  string
		after *mat.Dense // nil: l = L, green0
		p1    *mat.Dense
		want  bool
	}{
		{"P1 = I, P2 = -I", negI, mat.Identity(n), true},
		{"P1 = -I, l = L", nil, negI, true},
		{"P1 = I, P2 = I", mat.Identity(n), mat.Identity(n), false},
	} {
		for _, m := range []struct {
			name string
			call func(s *Split) *mat.Dense
		}{{"Forward", (*Split).Forward}, {"Reverse", (*Split).Reverse}, {"Equal", (*Split).Equal}} {
			s := &Split{before: udt(tc.p1)}
			if tc.after != nil {
				s.after = udt(tc.after)
			}
			if check.Enabled {
				if msg := panicMessage(func() { m.call(s) }); msg != "" {
					continue
				}
			} else {
				m.call(s)
			}
			if got := errors.Is(s.Err(), lapack.ErrSingular); got != tc.want {
				t.Errorf("%s: %s kept %v, want singular=%v", tc.name, m.name, s.Err(), tc.want)
			}
		}
	}
}
