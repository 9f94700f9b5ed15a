package greens

import (
	"fmt"
	"questgo/internal/blas"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/mat"
)

// This file implements the fully stable evaluation of the time-displaced
// Green's function through the two-sided graded decomposition of Loh and
// Gubernatis (the same reference as the paper's Algorithm 2):
//
//	G(tau_l, 0) = B_l ... B_1 (I + B_L ... B_1)^{-1}
//	            = ((B_l ... B_1)^{-1} + B_L ... B_{l+1})^{-1}.
//
// Forward propagation from G(0) — left-multiplying G(0) by B_1, B_2, ... —
// loses a digit or so per slice once the product develops cancellations,
// which is fine for short displacements but not for tau ~ beta/2 at strong
// coupling.
//
// Here both *forward* partial products are stratified with the paper's
// Algorithm 3,
//
//	P1 = B_l ... B_1     = U1 D1 T1,
//	P2 = B_L ... B_{l+1} = U2 D2 T2,
//
// and the inverse of P1 enters analytically as T1^{-1} D1^{-1} U1^T —
// a well-conditioned solve, exact diagonal reciprocals, and an orthogonal
// transpose. (Stratifying a chain of B^{-1} matrices instead loses the
// small-scale structure of the sum: the roundoff committed at the large
// scale of that product is not of factor-perturbation form, and shows up
// as ~1e-4 errors in G at strong coupling. The factored-inverse route
// below keeps every intermediate bounded and is verified against 256-bit
// references in the tests.)

// DisplacedGreen computes G(tau_l, 0) for 1 <= l <= L with cluster size k
// for both chains (k = 1 means one QR per slice).
//
// Accuracy: the achievable error tracks the conditioning of the partial
// product, err ~ eps * kappa(B_l...B_1)-ish — the same behaviour as a
// backward-stable algorithm, verified against 256-bit references in the
// tests (which also measure the intrinsic sensitivity of G(tau) to 1e-15
// input noise and find the two indistinguishable). For l = L the exact
// antiperiodicity identity G(beta, 0) = I - G(0) is used instead, which is
// well conditioned at any coupling.
func DisplacedGreen(p *hubbard.Propagator, f *hubbard.Field, sigma hubbard.Spin, l, k int) *mat.Dense {
	L := p.Model.L
	if l < 1 || l > L {
		panic(fmt.Sprintf("greens: displaced slice %d out of range [1, %d]", l, L))
	}
	if k < 1 {
		k = 1
	}
	if l == L {
		g0 := GreenFromUDT(StratifyPrePivot(sliceBlocks(p, f, sigma, 0, L, k)))
		out := mat.Identity(p.Model.N())
		out.Add(-1, g0)
		return out
	}
	udt1 := StratifyPrePivot(sliceBlocks(p, f, sigma, 0, l, k))
	udt2 := StratifyPrePivot(sliceBlocks(p, f, sigma, l, L, k))
	return invertFactoredSum(udt1, udt2)
}

// DisplacedGreenReverse computes the "reverse" displaced Green's function
//
//	G(0, tau_l) = <T c(0) c^dag(tau_l)> = -(I - G(0)) (B_l ... B_1)^{-1}
//	            = -(B_l ... B_1 + (B_L ... B_{l+1})^{-1})^{-1},
//
// the other ingredient of unequal-time two-particle correlators
// (susceptibilities): <c^dag_a(tau) c_b(0)> = -G(0,tau)(b,a) for tau > 0.
// Evaluated with the same two-sided graded machinery as DisplacedGreen,
// with the roles of the chains exchanged.
func DisplacedGreenReverse(p *hubbard.Propagator, f *hubbard.Field, sigma hubbard.Spin, l, k int) *mat.Dense {
	L := p.Model.L
	if l < 1 || l > L {
		panic(fmt.Sprintf("greens: displaced slice %d out of range [1, %d]", l, L))
	}
	if k < 1 {
		k = 1
	}
	var out *mat.Dense
	if l == L {
		// G(0, beta) = -(I - G(beta-chain inverse + ...)) — the sum
		// degenerates to P1 + I with P1 the full chain:
		// G(0, beta) = -(P1 + I)^{-1}... but (I + P1)^{-1} = G(0), so
		// G(0, beta) = -G(0), which is the antiperiodic image.
		out = GreenFromUDT(StratifyPrePivot(sliceBlocks(p, f, sigma, 0, L, k)))
	} else {
		udt1 := StratifyPrePivot(sliceBlocks(p, f, sigma, 0, l, k))
		udt2 := StratifyPrePivot(sliceBlocks(p, f, sigma, l, L, k))
		out = invertFactoredSum(udt2, udt1)
	}
	out.Scale(-1)
	return out
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
func invertFactoredSum(u1, u2 *UDT) *mat.Dense {
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
	luT2T, _ := lapack.LUFactor(t2T)
	mT := u1.Q.Clone()
	luT2T.Solve(mT)
	m := mT.Transpose()
	// N = T1 * U2.
	nn := mat.New(n, n)
	blas.Gemm(false, false, 1, u1.T, u2.Q, 0, nn)

	// C = Da^s M (Db^b)^{-1} + (Da^b)^{-1} N Db^s.
	m.ScaleRows(daSmall)
	scaleInvCols(m, dbBig)
	scaleInvRows(nn, daBig)
	nn.ScaleCols(dbSmall)
	m.Add(1, nn)

	// RHS = (Da^b)^{-1} T1; solve C X = RHS.
	x := u1.T.Clone()
	scaleInvRows(x, daBig)
	luC, _ := lapack.LUFactor(m)
	luC.Solve(x)
	// X <- (Db^b)^{-1} X, then solve T2 G = X.
	scaleInvRows(x, dbBig)
	luT2, _ := lapack.LUFactor(u2.T.Clone())
	luT2.Solve(x)
	return x
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

// scaleInvCols scales column j of m by 1/d[j], guarding zeros.
func scaleInvCols(m *mat.Dense, d []float64) {
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			inv[i] = 0
		} else {
			inv[i] = 1 / v
		}
	}
	m.ScaleCols(inv)
}
