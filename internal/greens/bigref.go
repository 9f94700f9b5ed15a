package greens

import (
	"math/big"

	"questgo/internal/mat"
)

// GreenBigFloat evaluates G = (I + bs[last] ... bs[0])^{-1} in
// high-precision arithmetic (prec bits) and rounds the result to float64.
// It is the test oracle that lets us quantify, on small systems, how many
// digits the float64 algorithms actually deliver: the naive product loses
// everything at large beta*U while both stratifications stay near machine
// precision — the claim behind the paper's Figure 2.
func GreenBigFloat(bs []*mat.Dense, prec uint) *mat.Dense {
	return bigToDense(bigInverse(bigAddIdentity(bigProduct(bs, bs[0].Rows, prec), 1), prec))
}

// DisplacedBigFloat is the prec-bit reference of a Split's unequal-time
// Green's functions: for the chain bs (application order) cut after its
// first l matrices, l >= 1, with P1 = bs[l-1] ... bs[0] and
// P2 = bs[last] ... bs[l], it returns
//
//	G(tau_l, 0) = P1 G(0),
//	G(0, tau_l) = (G(0) - I) P1^{-1},
//
// with G(0) = (I + P2 P1)^{-1}, rounding to float64 only at the end: a
// G(0) rounded before the chain multiplication would inject
// eps*||B_l...B_1|| of error, the very amplification the two-sided
// formulas exist to avoid. The equal-time G(tau_l, tau_l) is GreenBigFloat
// of the rotated chain, bs[l:] then bs[:l].
func DisplacedBigFloat(bs []*mat.Dense, l int, prec uint) (fwd, rev *mat.Dense) {
	n := bs[0].Rows
	p1, p2 := bigProduct(bs[:l], n, prec), bigProduct(bs[l:], n, prec)
	g0 := bigInverse(bigAddIdentity(bigMul(p2, p1, prec), 1), prec)
	fwd = bigToDense(bigMul(p1, g0, prec))
	rev = bigToDense(bigMul(bigAddIdentity(g0, -1), bigInverse(p1, prec), prec))
	return fwd, rev
}

// bigProduct is bs[last] ... bs[0] (exactly, from the n x n identity).
func bigProduct(bs []*mat.Dense, n int, prec uint) [][]*big.Float {
	p := bigFromDense(mat.Identity(n), prec)
	for _, b := range bs {
		p = bigMul(bigFromDense(b, prec), p, prec)
	}
	return p
}

// bigAddIdentity adds s*I to a in place and returns it.
func bigAddIdentity(a [][]*big.Float, s int64) [][]*big.Float {
	for i := range a {
		a[i][i].Add(a[i][i], new(big.Float).SetInt64(s))
	}
	return a
}

func bigToDense(a [][]*big.Float) *mat.Dense {
	out := mat.New(len(a), len(a))
	for i := range a {
		for j := range a[i] {
			v, _ := a[i][j].Float64()
			out.Set(i, j, v)
		}
	}
	return out
}

func bigFromDense(a *mat.Dense, prec uint) [][]*big.Float {
	n, m := a.Rows, a.Cols
	out := make([][]*big.Float, n)
	for i := 0; i < n; i++ {
		out[i] = make([]*big.Float, m)
		for j := 0; j < m; j++ {
			out[i][j] = new(big.Float).SetPrec(prec).SetFloat64(a.At(i, j))
		}
	}
	return out
}

func bigMul(a, b [][]*big.Float, prec uint) [][]*big.Float {
	n := len(a)
	m := len(b[0])
	k := len(b)
	out := make([][]*big.Float, n)
	t := new(big.Float).SetPrec(prec)
	for i := 0; i < n; i++ {
		out[i] = make([]*big.Float, m)
		for j := 0; j < m; j++ {
			s := new(big.Float).SetPrec(prec)
			for kk := 0; kk < k; kk++ {
				t.Mul(a[i][kk], b[kk][j])
				s.Add(s, t)
			}
			out[i][j] = s
		}
	}
	return out
}

// bigInverse performs Gauss-Jordan elimination with partial pivoting.
func bigInverse(a [][]*big.Float, prec uint) [][]*big.Float {
	n := len(a)
	// Augment with identity.
	inv := make([][]*big.Float, n)
	for i := 0; i < n; i++ {
		inv[i] = make([]*big.Float, n)
		for j := 0; j < n; j++ {
			inv[i][j] = new(big.Float).SetPrec(prec)
			if i == j {
				inv[i][j].SetInt64(1)
			}
		}
	}
	t := new(big.Float).SetPrec(prec)
	abs := func(x *big.Float) *big.Float { return new(big.Float).SetPrec(prec).Abs(x) }
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		best := abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if c := abs(a[r][col]); c.Cmp(best) > 0 {
				best, p = c, r
			}
		}
		a[col], a[p] = a[p], a[col]
		inv[col], inv[p] = inv[p], inv[col]
		piv := new(big.Float).SetPrec(prec).Quo(new(big.Float).SetPrec(prec).SetInt64(1), a[col][col])
		for j := 0; j < n; j++ {
			a[col][j].Mul(a[col][j], piv)
			inv[col][j].Mul(inv[col][j], piv)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := new(big.Float).SetPrec(prec).Set(a[r][col])
			if f.Sign() == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				t.Mul(f, a[col][j])
				a[r][j].Sub(a[r][j], t)
				t.Mul(f, inv[col][j])
				inv[r][j].Sub(inv[r][j], t)
			}
		}
	}
	return inv
}
