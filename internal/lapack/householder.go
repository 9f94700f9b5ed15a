// Package lapack provides the dense factorizations used by the DQMC
// Green's function kernels: blocked Householder QR (the DGEQRF of the
// paper's Figure 1), column-pivoted QR (DGEQP3), LU with partial pivoting
// (the final solve of the stratification), and a symmetric eigensolver
// (used once per simulation to form B = exp(-dtau*K) and its inverse).
package lapack

import (
	"math"

	"questgo/internal/blas"
	"questgo/internal/mat"
)

// larfg generates an elementary Householder reflector H = I - tau*v*v^T
// such that H * [alpha; x] = [beta; 0], with v = [1; x/(alpha-beta)] stored
// back into x. It returns (beta, tau). This is LAPACK's DLARFG with the
// usual rescaling for very small vectors.
func larfg(alpha float64, x []float64) (beta, tau float64) {
	xnorm := blas.Nrm2(x)
	if xnorm == 0 {
		return alpha, 0
	}
	beta = -math.Copysign(math.Hypot(alpha, xnorm), alpha)
	// Rescale if beta is dangerously small.
	const safmin = 2.0041683600089728e-292 // ~ dlamch('S')/dlamch('E')
	var scale float64 = 1
	cnt := 0
	for math.Abs(beta) < safmin && cnt < 20 {
		blas.Scal(1/safmin, x)
		beta /= safmin
		alpha /= safmin
		scale *= safmin
		xnorm = blas.Nrm2(x)
		beta = -math.Copysign(math.Hypot(alpha, xnorm), alpha)
		cnt++
	}
	tau = (beta - alpha) / beta
	blas.Scal(1/(alpha-beta), x)
	beta *= scale
	return beta, tau
}

// larft forms the upper triangular factor T of the block reflector
// H = H_1 H_2 ... H_k = I - V*T*V^T ("forward, columnwise" storage).
// V is m x k with the reflectors below the diagonal (nothing on or above it
// is read); tau holds the scalar factors. Only the upper triangle of t is
// written.
//
//qmc:hot
func larft(v *mat.Dense, tau []float64, t *mat.Dense) {
	for i, ti := range tau {
		tc := t.Col(i)[:i+1]
		if ti == 0 {
			for j := range tc {
				tc[j] = 0
			}
			continue
		}
		// tc[0:i] = -tau[i] * V[:, 0:i]^T * v_i. v_j and v_i overlap from
		// row i down, where v_i has its unit element.
		vi := v.Col(i)[i+1:]
		for j := 0; j < i; j++ {
			vj := v.Col(j)
			tc[j] = -ti * (vj[i] + blas.Dot(vj[i+1:], vi))
		}
		// tc[0:i] = T[0:i, 0:i] * tc[0:i] in place, one column of T per
		// entry: tc[r] is still the original when column r is swept in,
		// because earlier columns only touch entries above their own.
		for r := 0; r < i; r++ {
			x, tr := tc[r], t.Col(r)
			blas.Axpy(x, tr[:r], tc[:r])
			tc[r] = tr[r] * x
		}
		tc[i] = ti
	}
}

// panelT completes the jb x jb compact-WY factor t of a panel whose
// reflectors v holds explicitly (copyReflectors layout). The qrInner-wide
// diagonal blocks left of column from are in place already (geqrPanel
// formed them for its own updates); the rest come from larft, and each
// block column above the diagonal from the two factors beside it,
//
//	T = [[T1, -T1 (V1^T V2) T2], [0, T2]],
//
// so the scalar larft never spans more than qrInner columns and the
// O(m jb^2) inner products run as one GEMM. work is 2*qrBlock x >=qrInner.
//
//qmc:hot
func panelT(v *mat.Dense, tau []float64, t *mat.Dense, from int, work *mat.Dense) {
	m, jb := v.Rows, v.Cols
	for j := 0; j < jb; j += qrInner {
		ib := min(qrInner, jb-j)
		t2 := t.View(j, j, ib, ib)
		if j >= from {
			larft(v.View(j, j, m-j, ib), tau[j:j+ib], t2)
		}
		if j > 0 {
			w := work.View(0, 0, j, ib)
			w2 := work.View(qrBlock, 0, j, ib)
			blas.Gemm(true, false, 1, v.View(j, 0, m-j, j), v.View(j, j, m-j, ib), 0, w)
			blas.Gemm(false, false, 1, t.View(0, 0, j, j), w, 0, w2)
			blas.Gemm(false, false, -1, w2, t2, 0, t.View(0, j, j, ib))
		}
	}
}

// larfb applies the block reflector defined by (V, T) to C from the left:
//
//	trans=false: C = (I - V T V^T) C   (apply H)
//	trans=true:  C = (I - V T^T V^T) C (apply H^T)
//
// V is m x k (unit lower trapezoidal), C is m x n.
// work must provide at least 2k rows and n columns of scratch.
func larfb(v *mat.Dense, t *mat.Dense, trans bool, c *mat.Dense, work *mat.Dense) {
	k := v.Cols
	n := c.Cols
	w := work.View(0, 0, k, n)
	w2 := work.View(k, 0, k, n)
	// W = V^T C (the transpose is absorbed by the Gemm packing)
	blas.Gemm(true, false, 1, v, c, 0, w)
	// W2 = op(T) W, with T upper triangular (treated densely; k is small).
	blas.Gemm(trans, false, 1, t, w, 0, w2)
	// C -= V W2
	blas.Gemm(false, false, -1, v, w2, 1, c)
}
