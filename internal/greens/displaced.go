package greens

import (
	"questgo/internal/blas"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/mat"
)

// This file implements the unequal-time (imaginary-time-displaced) Green's
// function
//
//	G(tau_l, 0) = <T c(tau_l) c^dag(0)> = B_l B_{l-1} ... B_1 G(0),
//
// the quantity behind QUEST's "dynamic" measurements (spectral and
// transport properties; the paper's introduction lists conductivity at
// interfaces among the targets of the N = 1024 capability).
//
// The naive left-multiplication by B_l accumulates the same exponential
// dynamic range that destroys the equal-time calculation, so the displaced
// propagation is stabilized the same way: the accumulated product is kept
// in graded UDT form and re-factored (by the pre-pivoted QR of Algorithm 3)
// every k steps.

// DisplacedWalker computes G(tau_l, 0) for l = 0, 1, 2, ... by stabilized
// forward propagation from the equal-time G(0).
type DisplacedWalker struct {
	prop  *hubbard.Propagator
	sigma hubbard.Spin
	// Graded state: the current displaced Green's function is
	// Q * diag(D) * T.
	q *mat.Dense
	d []float64
	t *mat.Dense
	// refactorEvery counts B applications between QR re-factorizations.
	refactorEvery int
	sinceRefactor int
	l             int
	tmp           *mat.Dense
	v             []float64
}

// NewDisplacedWalker starts at tau = 0 with the supplied equal-time Green's
// function g0 = G(0) (not modified). refactorEvery plays the role of the
// clustering size k; 10 is a good default.
func NewDisplacedWalker(p *hubbard.Propagator, g0 *mat.Dense, sigma hubbard.Spin, refactorEvery int) *DisplacedWalker {
	if refactorEvery < 1 {
		refactorEvery = 10
	}
	n := g0.Rows
	w := &DisplacedWalker{
		prop:          p,
		sigma:         sigma,
		q:             mat.Identity(n),
		d:             make([]float64, n),
		t:             g0.Clone(),
		refactorEvery: refactorEvery,
		tmp:           mat.New(n, n),
		v:             make([]float64, n),
	}
	for i := range w.d {
		w.d[i] = 1
	}
	return w
}

// Tau returns the current displacement index l (tau = l * dtau).
func (w *DisplacedWalker) Tau() int { return w.l }

// Step advances tau by one slice using the field values at slice
// (l mod L): G(tau+dtau, 0) = B_{l+1} G(tau, 0).
func (w *DisplacedWalker) Step(f *hubbard.Field) {
	slice := w.l % w.prop.Model.L
	// Q <- V_slice * (Bkin * Q); the graded D and well-conditioned T are
	// untouched, exactly like step 3a of the stratification.
	blas.Gemm(false, false, 1, w.prop.Bkin, w.q, 0, w.tmp)
	w.prop.VDiag(w.sigma, f, slice, w.v)
	w.tmp.ScaleRows(w.v)
	w.q, w.tmp = w.tmp, w.q
	w.l++
	w.sinceRefactor++
	if w.sinceRefactor >= w.refactorEvery {
		w.refactor()
	}
}

// refactor restores Q to orthogonality by absorbing the accumulated product
// into the graded factors: (Q D) = Q' R P^T, D' = diag(R),
// T' = D'^{-1} R P^T T.
func (w *DisplacedWalker) refactor() {
	n := w.q.Rows
	// C = Q * diag(D)
	w.q.ScaleCols(w.d)
	perm := descendingNormPerm(w.q)
	permuted := w.tmp
	permuteColsGather(permuted, w.q, perm)
	qr := lapack.QRFactor(permuted)
	r := qr.R()
	r.Diagonal(w.d)
	scaleInvRows(r, w.d)
	// T <- (D^{-1} R) (P^T T)
	pt := mat.New(n, n)
	permuteRowsGather(pt, w.t, perm)
	blas.Gemm(false, false, 1, r, pt, 0, w.t)
	qr.FormQ(w.q)
	qr.Release()
	lapack.PutPivot(&perm)
	w.sinceRefactor = 0
}

// Current materializes G(tau_l, 0) = Q D T. The entries can legitimately
// span a large range; the product is formed most-graded-last so that small
// scales are not lost prematurely.
func (w *DisplacedWalker) Current() *mat.Dense {
	qd := w.q.Clone()
	qd.ScaleCols(w.d)
	out := mat.New(w.q.Rows, w.q.Cols)
	blas.Gemm(false, false, 1, qd, w.t, 0, out)
	return out
}

// DisplacedNaive computes G(tau_l, 0) by plain repeated multiplication —
// the unstable reference used in tests to demonstrate why the UDT
// propagation is necessary.
func DisplacedNaive(p *hubbard.Propagator, f *hubbard.Field, g0 *mat.Dense, sigma hubbard.Spin, l int) *mat.Dense {
	g := g0.Clone()
	n := g0.Rows
	tmp := mat.New(n, n)
	v := make([]float64, n)
	for s := 0; s < l; s++ {
		blas.Gemm(false, false, 1, p.Bkin, g, 0, tmp)
		p.VDiag(sigma, f, s%p.Model.L, v)
		tmp.ScaleRows(v)
		g, tmp = tmp, g
	}
	return g
}
