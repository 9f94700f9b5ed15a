package lapack

import (
	"math"

	"questgo/internal/blas"
	"questgo/internal/check"
	"questgo/internal/mat"
	"questgo/internal/obs"
	"questgo/internal/parallel"
)

// qrpBlock is the panel width of the blocked QRP. Like qrBlock it balances
// the level-2 panel cost (quadratic in the width) against the per-panel
// trailing-update and norm-downdate sweeps for DQMC matrix sizes. It is
// qrBlock by definition: both factorizations file their panels' T in the
// one strip layout MulQ and FormQ walk.
const qrpBlock = qrBlock

// tol3z is sqrt(machine epsilon): the DGEQP3 threshold below which a
// downdated partial column norm has lost too many digits to cancellation
// and must be recomputed from the matrix.
const tol3z = 1.4901161193847656e-08

// QRPFactor computes the QR factorization with column pivoting
// A*P = Q*R, overwriting a with the DGEQRF-style layout and returning the
// permutation: jpvt[j] is the original index of the column that ends up in
// position j (so P in A*P = QR gathers columns in jpvt order).
//
// This is the blocked, level-3 variant in the spirit of the source paper's
// Algorithm 3 (pre-permute by column norm, then ride the blocked QR) and
// of LAPACK's DGEQP3/DLAQPS panel scheme:
//
//  1. Pre-pivot a panel: the qrpBlock remaining columns of largest partial
//     norm are swapped to the elimination frontier in one pass. This is the
//     per-panel version of the paper's descending-norm pre-sort.
//  2. Factor the panel with the classic level-2 pivoted QR (qrpPanel),
//     with both the reflector applications and the residual pivot search
//     confined to the panel columns — O(m·jb²) level-2 work instead of the
//     O(m·n·jb) a per-column trailing update would cost.
//  3. Apply the panel's compact-WY block reflector to the whole trailing
//     matrix as one GEMM-rich larfb — the same machinery the blocked QR
//     uses, so the bulk of the flops run at level-3 speed.
//  4. Downdate all trailing column norms in aggregate (downdateNorms): one
//     panel row per reflector, with the DGEQP3 cancellation safeguard,
//     parallelized across columns like ColumnNorms.
//
// The pivot sequence can differ from the level-2 reference
// (QRPFactorLevel2) when downdating reorders columns mid-panel, but the
// factorization is exact for whatever permutation it returns (A·P = Q·R to
// machine precision) and the diagonal of R remains graded, which is all
// the UDT stratification relies on.
//
// QRPFactor is a wrapper small enough to inline, so a caller that releases
// the QR before returning keeps the header on its own stack.
//
//qmc:hot
func QRPFactor(a *mat.Dense) (*QR, []int) {
	qr := &QR{}
	return qr, qr.factorPivoted(a)
}

// factorPivoted is QRPFactor's body: it factors a into the fresh header qr
// and returns the permutation.
//
//qmc:hot
func (qr *QR) factorPivoted(a *mat.Dense) []int {
	obs.Add(obs.OpQRPFactorizations, 1)
	qr.init(a)
	m, n := a.Rows, a.Cols
	k := min(m, n)
	tau := qr.Tau
	jpvt := GetPivot(n)
	wk := mat.GetScratch(n, 2)
	norms := wk.Data[0:n]      // partial (trailing) column norms
	onorms := wk.Data[n : 2*n] // reference norms for the safeguard
	lwk := mat.GetScratch(qrpBlock, 2)
	v := mat.GetScratch(m, qrpBlock)
	wrk := mat.GetScratch(2*qrpBlock, n)
	defer func() {
		mat.PutScratch(wk)
		mat.PutScratch(lwk)
		mat.PutScratch(v)
		mat.PutScratch(wrk)
	}()

	initPivotNorms(a, jpvt, norms, onorms)

	panels := int64(0)
	for j := 0; j < k; j += qrpBlock {
		jb := min(qrpBlock, k-j)
		// Step 1: greedily swap the jb largest partial norms to the front.
		// Strict > with first-index-wins matches the level-2 tie policy.
		for s := j; s < j+jb; s++ {
			p := s
			for c := s + 1; c < n; c++ {
				if norms[c] > norms[p] {
					p = c
				}
			}
			if p != s {
				blas.Swap(a.Col(p), a.Col(s))
				jpvt[p], jpvt[s] = jpvt[s], jpvt[p]
				norms[p] = norms[s]
				onorms[p] = onorms[s]
			}
		}
		// Step 2: level-2 pivoted QR confined to the panel.
		qrpPanel(a, j, jb, tau[j:j+jb], jpvt, lwk.Data[0:qrpBlock], lwk.Data[qrpBlock:2*qrpBlock])
		if j+jb < n {
			// Step 3: one block-reflector GEMM sweep over the trailing matrix.
			vv := v.View(0, 0, m-j, jb)
			copyReflectors(a.View(j, j, m-j, jb), vv)
			tt := qr.t.View(0, j, jb, jb)
			panelT(vv, tau[j:j+jb], tt, 0, wrk)
			qr.nt = j + jb
			trail := a.View(j, j+jb, m-j, n-j-jb)
			larfb(vv, tt, true, trail, wrk)
			// Step 4: aggregated norm downdate for the next panel's pivots.
			downdateNorms(a, j, jb, norms, onorms)
		}
		panels++
	}
	obs.Add(obs.OpQRPPanels, panels)
	check.Finite("lapack.QRPFactor", a)
	check.FiniteSlice("lapack.QRPFactor tau", tau)
	return jpvt
}

// qrpPanel runs the level-2 column-pivoted QR on the pre-pivoted panel
// a[j:m, j:j+jb]: at each step the remaining *panel* column of largest
// partial norm is swapped in (full-height swap, so R rows above the
// frontier stay consistent), one reflector is generated, and only the
// remaining panel columns are updated. Panel-local norms start exact (the
// columns are about to stream through the cache anyway) and are downdated
// with the usual safeguard, so the within-panel elimination order is the
// classic greedy one and the panel's R diagonal is non-increasing.
func qrpPanel(a *mat.Dense, j, jb int, tau []float64, jpvt []int, lnorms, lonorms []float64) {
	m := a.Rows
	lnorms = lnorms[:jb]
	lonorms = lonorms[:jb]
	for s := 0; s < jb; s++ {
		lnorms[s] = blas.Nrm2(a.Col(j + s)[j:])
		lonorms[s] = lnorms[s]
	}
	for i := 0; i < jb; i++ {
		ji := j + i
		p := i
		for s := i + 1; s < jb; s++ {
			if lnorms[s] > lnorms[p] {
				p = s
			}
		}
		if p != i {
			blas.Swap(a.Col(j+p), a.Col(ji))
			jpvt[j+p], jpvt[ji] = jpvt[ji], jpvt[j+p]
			lnorms[p] = lnorms[i]
			lonorms[p] = lonorms[i]
		}
		col := a.Col(ji)
		beta, t := larfg(col[ji], col[ji+1:])
		tau[i] = t
		if i+1 < jb && t != 0 {
			col[ji] = 1
			blas.ApplyReflector(col[ji:], t, a.View(ji, ji+1, m-ji, jb-i-1))
		}
		col[ji] = beta
		for s := i + 1; s < jb; s++ {
			if lnorms[s] == 0 {
				continue
			}
			r := math.Abs(a.At(ji, j+s)) / lnorms[s]
			temp := 1 - r*r
			if temp < 0 {
				temp = 0
			}
			temp2 := temp * (lnorms[s] / lonorms[s]) * (lnorms[s] / lonorms[s])
			if temp2 <= tol3z {
				if ji+1 < m {
					lnorms[s] = blas.Nrm2(a.Col(j + s)[ji+1:])
				} else {
					lnorms[s] = 0
				}
				lonorms[s] = lnorms[s]
			} else {
				lnorms[s] *= math.Sqrt(temp)
			}
		}
	}
}

// downdateNorms downdates the partial norms of the trailing columns after a
// whole panel's block update, preserving the DGEQP3 cancellation safeguard.
// Reflector i of the panel only ever modifies rows >= j+i, so after the
// aggregated larfb, rows j..j+jb-1 of a trailing column hold exactly the
// values the level-2 algorithm would have downdated with step by step.
//
// The per-step safeguard collapses to a single test: in squared form,
// LAPACK's recompute condition temp·(norm/onorm)² <= tol3z at step i reads
// ns_i <= tol3z·onorm², where ns_i is the downdated squared norm after
// removing rows j..j+i and onorm is fixed between recomputes. ns_i decreases
// monotonically in i, so some step trips iff the final ns does — and a
// tripped column is recomputed from the fully updated frontier j+jb no
// matter which step tripped. The whole walk therefore reduces to one dot
// product of the jb panel rows per column plus one compare. Independent per
// column, hence parallelized like ColumnNorms and under its rule: the
// trailing block goes to the worker pool only from normsPoolMin elements.
//
//qmc:hot
func downdateNorms(a *mat.Dense, j, jb int, norms, onorms []float64) {
	nc := a.Cols - j - jb
	if (a.Rows-j)*nc < normsPoolMin {
		downdateCols(a, j, jb, norms, onorms, 0, nc)
		return
	}
	//qmc:allow hotalloc -- one closure per panel, amortized over the O((n-j)·jb) downdate
	parallel.For(nc, 32, func(lo, hi int) { downdateCols(a, j, jb, norms, onorms, lo, hi) })
}

// downdateCols is downdateNorms over trailing columns [lo, hi).
func downdateCols(a *mat.Dense, j, jb int, norms, onorms []float64, lo, hi int) {
	for c := j + jb + lo; c < j+jb+hi; c++ {
		if norms[c] == 0 {
			continue
		}
		col := a.Col(c)
		head := col[j : j+jb]
		ns := norms[c]*norms[c] - blas.Dot(head, head)
		if ns <= tol3z*onorms[c]*onorms[c] {
			norms[c] = blas.Nrm2(col[j+jb:])
			onorms[c] = norms[c]
		} else {
			norms[c] = math.Sqrt(ns)
		}
	}
}

// QRPFactorLevel2 is the retained classic DGEQPF-style reference: at each
// step the remaining column of largest partial norm is swapped in, one
// Householder reflector is generated, and the trailing matrix is updated
// with a matrix-vector product and a rank-1 update. Column norms are
// downdated with the usual cancellation safeguard and recomputed when
// unreliable.
//
// This routine is intentionally level-2 bound — pivot selection needs the
// updated norms of every remaining column before the next reflector can be
// chosen, which is exactly the serialization the blocked QRPFactor (and,
// more aggressively, the paper's whole-matrix pre-pivoting) removes. It is
// kept as the equivalence oracle for the blocked path and as the baseline
// series of Figure 1 (cmd/figures -fig=1).
//
//qmc:hot
func QRPFactorLevel2(a *mat.Dense) (*QR, []int) {
	obs.Add(obs.OpQRPFactorizations, 1)
	m, n := a.Rows, a.Cols
	k := min(m, n)
	qr := newQR(a)
	tau := qr.Tau
	jpvt := GetPivot(n)
	wk := mat.GetScratch(n, 2) // pooled: norms | onorms
	norms := wk.Data[0:n]      // partial (trailing) column norms
	onorms := wk.Data[n : 2*n] // reference norms for the safeguard
	defer mat.PutScratch(wk)

	initPivotNorms(a, jpvt, norms, onorms)

	for i := 0; i < k; i++ {
		// Pivot: remaining column with the largest partial norm.
		p := i
		for j := i + 1; j < n; j++ {
			if norms[j] > norms[p] {
				p = j
			}
		}
		if p != i {
			blas.Swap(a.Col(p), a.Col(i))
			jpvt[p], jpvt[i] = jpvt[i], jpvt[p]
			norms[p] = norms[i]
			onorms[p] = onorms[i]
		}
		col := a.Col(i)
		beta, t := larfg(col[i], col[i+1:])
		tau[i] = t
		if i+1 < n && t != 0 {
			col[i] = 1
			blas.ApplyReflector(col[i:], t, a.View(i, i+1, m-i, n-i-1))
		}
		col[i] = beta
		// Downdate the partial norms of the trailing columns.
		for j := i + 1; j < n; j++ {
			if norms[j] == 0 {
				continue
			}
			r := math.Abs(a.At(i, j)) / norms[j]
			temp := 1 - r*r
			if temp < 0 {
				temp = 0
			}
			temp2 := temp * (norms[j] / onorms[j]) * (norms[j] / onorms[j])
			if temp2 <= tol3z {
				// Cancellation: recompute from scratch.
				if i+1 < m {
					norms[j] = blas.Nrm2(a.Col(j)[i+1:])
				} else {
					norms[j] = 0
				}
				onorms[j] = norms[j]
			} else {
				norms[j] *= math.Sqrt(temp)
			}
		}
	}
	check.Finite("lapack.QRPFactorLevel2", a)
	check.FiniteSlice("lapack.QRPFactorLevel2 tau", tau)
	return qr, jpvt
}

// initPivotNorms starts a pivoted factorization: the identity permutation,
// and every column's norm as both its partial and its reference norm.
func initPivotNorms(a *mat.Dense, jpvt []int, norms, onorms []float64) {
	ColumnNorms(a, norms)
	for j := range jpvt {
		jpvt[j] = j
	}
	copy(onorms, norms)
}

// normsPoolMin is the smallest element count ColumnNorms and downdateNorms
// offer to the worker pool. Below it the whole sweep costs less than
// waking a worker — about what the smallest pooled GEMM (blas.gemmPoolMin) costs, measured on
// the dev container: N=36..100 ran 20-60% slower through the pool at
// GOMAXPROCS=2 — so it runs on the caller, as every N <= 64 service and
// stratification-stack size does; N=144 and up stay pooled.
const normsPoolMin = 128 * 128

// ColumnNorms computes the Euclidean norm of every column of a, in parallel
// when there is enough of it. This is the pre-pivoting step of the paper's
// Algorithm 3: the permutation that sorts these norms in descending order
// replaces per-step pivoting. Each norm is one blas.Nrm2 either way, so the
// result does not depend on the dispatch.
func ColumnNorms(a *mat.Dense, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, a.Cols)
	}
	if a.Rows*a.Cols < normsPoolMin {
		columnNorms(a, dst, 0, a.Cols)
		return dst
	}
	parallel.For(a.Cols, 8, func(lo, hi int) { columnNorms(a, dst, lo, hi) })
	return dst
}

func columnNorms(a *mat.Dense, dst []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		dst[j] = blas.Nrm2(a.Col(j))
	}
}
