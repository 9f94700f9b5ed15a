package greens

import (
	"math"
	"math/big"
	"testing"

	"questgo/internal/blas"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// bigChain returns B_l ... B_1 and G(0) = (I + B_L ... B_1)^{-1} entirely
// in high precision — G(0) is never rounded to float64 before the chain
// multiplication (rounding it would inject eps*||B_l...B_1|| error into
// the "reference", swamping the quantity under test).
func bigChain(p *hubbard.Propagator, f *hubbard.Field, sigma hubbard.Spin, l int, prec uint) (partial, g0 [][]*big.Float) {
	n := p.Model.N()
	bs := make([]*mat.Dense, p.Model.L)
	for i := range bs {
		bs[i] = p.BMatrix(sigma, f, i)
	}
	// Full product in big precision.
	prod := bigFromDense(bs[0], prec)
	if l == 0 {
		partial = bigFromDense(mat.Identity(n), prec)
	}
	for i := 1; i < len(bs); i++ {
		if i == l {
			partial = cloneBig(prod, prec)
		}
		prod = bigMul(bigFromDense(bs[i], prec), prod, prec)
	}
	if l == len(bs) {
		partial = cloneBig(prod, prec)
	}
	// G0 = (I + prod)^{-1} in big precision.
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	for i := 0; i < n; i++ {
		prod[i][i].Add(prod[i][i], one)
	}
	return partial, bigInverse(prod, prec)
}

func bigToDense(a [][]*big.Float) *mat.Dense {
	out := mat.New(len(a), len(a[0]))
	for i := range a {
		for j := range a[i] {
			v, _ := a[i][j].Float64()
			out.Set(i, j, v)
		}
	}
	return out
}

// bigDisplaced computes G(tau_l, 0) = B_l ... B_1 G(0) in high precision.
func bigDisplaced(p *hubbard.Propagator, f *hubbard.Field, sigma hubbard.Spin, l int, prec uint) *mat.Dense {
	partial, g0 := bigChain(p, f, sigma, l, prec)
	return bigToDense(bigMul(partial, g0, prec))
}

// bigDisplacedReverse computes G(0, tau_l) = -(I - G(0)) (B_l ... B_1)^{-1}
// in high precision.
func bigDisplacedReverse(p *hubbard.Propagator, f *hubbard.Field, sigma hubbard.Spin, l int, prec uint) *mat.Dense {
	partial, g0 := bigChain(p, f, sigma, l, prec)
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	for i := range g0 {
		g0[i][i].Sub(g0[i][i], one) // G(0) - I
	}
	return bigToDense(bigMul(g0, bigInverse(partial, prec), prec))
}

func cloneBig(a [][]*big.Float, prec uint) [][]*big.Float {
	out := make([][]*big.Float, len(a))
	for i := range a {
		out[i] = make([]*big.Float, len(a[i]))
		for j := range a[i] {
			out[i][j] = new(big.Float).SetPrec(prec).Set(a[i][j])
		}
	}
	return out
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
		got := DisplacedGreen(p, f, hubbard.Up, l, 5)
		want := bigDisplaced(p, f, hubbard.Up, l, 256)
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
			if d := mat.RelDiff(DisplacedGreen(p, f, hubbard.Down, l, k), bigDisplaced(p, f, hubbard.Down, l, 256)); !(d <= 1e-10) {
				t.Fatalf("k=%d l=%d: G(tau,0) rel diff %g", k, l, d)
			}
			if d := mat.RelDiff(DisplacedGreenReverse(p, f, hubbard.Down, l, k), bigDisplacedReverse(p, f, hubbard.Down, l, 256)); !(d <= 1e-10) {
				t.Fatalf("k=%d l=%d: G(0,tau) rel diff %g", k, l, d)
			}
		}
	}
}

func TestDisplacedGreenAntiperiodicity(t *testing.T) {
	p, f, bs := testChain(t, 3, 3, 6, 3, 12, 67)
	g0 := Green(bs)
	gBeta := DisplacedGreen(p, f, hubbard.Up, p.Model.L, 4)
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
		got := DisplacedGreen(p, f, hubbard.Up, l, 10)
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
	DisplacedGreen(p, f, hubbard.Up, 0, 2)
}
