package greens

import (
	"fmt"
	"questgo/internal/blas"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/mat"
)

// Split is the slice chain of one spin cut after slice l, each half
// stratified once with the paper's Algorithm 3:
//
//	P1 = B_l ... B_1     = U1 D1 T1   (before tau_l),
//	P2 = B_L ... B_{l+1} = U2 D2 T2   (after tau_l).
//
// Every Green's function at (tau_l, 0) follows from the two decompositions,
// by the two-sided graded evaluation of Loh and Gubernatis (the reference
// of the paper's Algorithm 2):
//
//	G(tau, 0)   = (P1^{-1} + P2)^{-1}     Forward
//	G(0, tau)   = -(P1 + P2^{-1})^{-1}    Reverse
//	G(tau, tau) = (I + P1 P2)^{-1}        Equal
//
// P1^{-1} enters analytically as T1^{-1} D1^{-1} U1^T — a well-conditioned
// solve, exact diagonal reciprocals and an orthogonal transpose. (A
// stratified chain of B^{-1} matrices instead loses the small-scale
// structure of the sum, ~1e-4 errors in G at strong coupling; G(0)
// propagated forward slice by slice loses a digit or so per slice once the
// product develops cancellations.) The error tracks the conditioning of the
// partial products, eps * kappa(B_l...B_1)-ish, as for a backward-stable
// algorithm; the tests hold all three to 256- and 512-bit references. At
// l = L the after-tau chain is empty (P2 = I) and the exact antiperiodic
// identities G(beta, 0) = I - G(0), G(0, beta) = -G(0) and
// G(beta, beta) = G(0) are used, well conditioned at any coupling.
//
// A singular solve (lapack.ErrSingular) still returns the non-finite G it
// produced; the split keeps the first such error for Err.
type Split struct {
	before, after *UDT // after is nil at l = L
	err           error
}

// Err returns the first error a Green's function of this split returned,
// or nil.
func (s *Split) Err() error { return s.err }

// keep records err unless an earlier one is already kept.
func (s *Split) keep(err error) {
	if s.err == nil {
		s.err = err
	}
}

// SplitAt builds and stratifies both halves of the chain of spin sigma at
// slice 1 <= l <= L, in blocks of at most k slices (k = 1 means one QR per
// slice; k need not divide either half).
func SplitAt(p *hubbard.Propagator, f *hubbard.Field, sigma hubbard.Spin, l, k int) *Split {
	L := p.Model.L
	if l < 1 || l > L {
		panic(fmt.Sprintf("greens: displaced slice %d out of range [1, %d]", l, L))
	}
	if k < 1 {
		k = 1
	}
	s := &Split{before: Stratify(sliceBlocks(p, f, sigma, 0, l, k), true)}
	if l < L {
		s.after = Stratify(sliceBlocks(p, f, sigma, l, L, k), true)
	}
	return s
}

// Forward returns G(tau_l, 0) = <T c(tau_l) c^dag(0)>.
func (s *Split) Forward() *mat.Dense {
	if s.after == nil {
		out := mat.Identity(s.before.Q.Rows)
		out.Add(-1, s.green0())
		return out
	}
	g, err := invertFactoredSum(s.before, s.after)
	s.keep(err)
	return g
}

// Reverse returns G(0, tau_l) = <T c(0) c^dag(tau_l)>
// = -(I - G(0)) (B_l ... B_1)^{-1}, the other ingredient of unequal-time
// two-particle correlators: <c^dag_a(tau) c_b(0)> = -G(0,tau)(b,a) for
// tau > 0. It is the two-sided inversion with the halves' roles exchanged.
func (s *Split) Reverse() *mat.Dense {
	var out *mat.Dense
	if s.after == nil {
		out = s.green0()
	} else {
		var err error
		out, err = invertFactoredSum(s.after, s.before)
		s.keep(err)
	}
	out.Scale(-1)
	return out
}

// Equal returns the equal-time G(tau_l, tau_l) = (I + P1 P2)^{-1}, with
// P1 P2 = U1 D1 T1 * U2 D2 T2 joined by one graded combine (joinGreenInto),
// as at a StratStack boundary.
func (s *Split) Equal() *mat.Dense {
	u1, u2 := s.before, s.after
	if u2 == nil {
		return s.green0()
	}
	n := u1.Q.Rows
	g := mat.New(n, n)
	d := mat.GetScratch(n, 1)
	s.keep(joinGreenInto(g, u1, u2.Q, u2.D, u2.T, false, true, d.Data))
	mat.PutScratch(d)
	return g
}

// green0 returns the whole chain's G(0) = (I + P1)^{-1} at l = L.
func (s *Split) green0() *mat.Dense {
	n := s.before.Q.Rows
	g := mat.New(n, n)
	s.keep(GreenFromUDTInto(g, s.before))
	return g
}

// sliceBlocks splits slices [lo, hi) into clusters of at most k (the last
// may be short) and returns the host block products in application order
// (lowest slices first).
func sliceBlocks(p *hubbard.Propagator, f *hubbard.Field, sigma hubbard.Spin, lo, hi, k int) []*mat.Dense {
	w := NewWrapper(p)
	n := p.Model.N()
	out := make([]*mat.Dense, 0, (hi-lo+k-1)/k)
	for base := lo; base < hi; base += k {
		if base+k > hi {
			k = hi - base
		}
		b := mat.New(n, n)
		w.Cluster(b, f, sigma, base, k)
		out = append(out, b)
	}
	return out
}

// invertFactoredSum computes ((U1 D1 T1)^{-1} + U2 D2 T2)^{-1} with the
// big/small splitting of Loh and Gubernatis. Writing Da = D1^{-1} (exact
// reciprocals) and D = D^b * D^s with D^b = max(|D|, 1) carrying the sign
// and |D^s| <= 1:
//
//	A + B = T1^{-1} Da^b [ Da^s U1^T T2^{-1} (Db^b)^{-1}
//	                     + (Da^b)^{-1} T1 U2 Db^s ] Db^b T2
//
// so every matrix entering the bracket C is a product of factors bounded
// by one in magnitude with well-conditioned matrices, and
//
//	G = T2^{-1} (Db^b)^{-1} C^{-1} (Da^b)^{-1} T1.
//
// The error is the first of its three LU factorizations' (a singular C
// where the sum itself is singular); the solves run on either way.
func invertFactoredSum(u1, u2 *UDT) (*mat.Dense, error) {
	n := u1.Q.Rows
	da := make([]float64, n)
	for i, v := range u1.D {
		if v == 0 {
			da[i] = 0
		} else {
			da[i] = 1 / v
		}
	}
	daBig, daSmall := splitBigSmall(da)
	dbBig, dbSmall := splitBigSmall(u2.D)

	// M = U1^T * T2^{-1}: solve M T2 = U1^T, i.e. T2^T M^T = U1.
	t2T := u2.T.Transpose()
	luT2T, err := lapack.LUFactor(t2T)
	mT := u1.Q.Clone()
	luT2T.Solve(mT)
	m := mT.Transpose()
	// C = Da^s M (Db^b)^{-1} + (Da^b)^{-1} N Db^s, N = T1 * U2 with its
	// scalings in the product's write-back.
	m.ScaleRows(daSmall)
	m.ScaleCols(reciprocals(dbBig))
	nn := mat.New(n, n)
	blas.GemmScaled(false, false, u1.T, u2.Q, reciprocals(daBig), dbSmall, nn)
	m.Add(1, nn)

	// RHS = (Da^b)^{-1} T1; solve C X = RHS.
	x := u1.T.Clone()
	scaleInvRows(x, daBig)
	luC, errC := lapack.LUFactor(m)
	luC.Solve(x)
	// X <- (Db^b)^{-1} X, then solve T2 G = X.
	scaleInvRows(x, dbBig)
	luT2, errT2 := lapack.LUFactor(u2.T.Clone())
	luT2.Solve(x)
	if err == nil {
		err = errC
	}
	if err == nil {
		err = errT2
	}
	return x, err
}

// splitBigSmall returns (D^b, D^s) with D^b = max(|d|, 1) carrying the
// sign of d and D^s = d / D^b, so d = D^b * D^s element-wise.
func splitBigSmall(d []float64) (big, small []float64) {
	big = make([]float64, len(d))
	small = make([]float64, len(d))
	for i, v := range d {
		a := v
		if a < 0 {
			a = -a
		}
		if a > 1 {
			if v < 0 {
				big[i] = -a
			} else {
				big[i] = a
			}
			small[i] = v / big[i]
		} else {
			big[i] = 1
			small[i] = v
		}
	}
	return
}

// reciprocals returns 1/d[i] for each element, 0 for a zero.
func reciprocals(d []float64) []float64 {
	inv := make([]float64, len(d))
	for i, v := range d {
		if v != 0 {
			inv[i] = 1 / v
		}
	}
	return inv
}
