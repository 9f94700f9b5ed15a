package lapack

import (
	"fmt"
	"questgo/internal/blas"
	"questgo/internal/check"
	"questgo/internal/mat"
	"questgo/internal/obs"
)

// qrBlock is the panel width of the blocked QR. The panel itself is
// factored with a second level of blocking (geqrPanel, inner width
// qrInner), which keeps the truly level-2 work quadratic in qrInner rather
// than qrBlock — so the outer width can be sized for the trailing larfb
// GEMMs alone. 32/16 measured fastest at N from a few hundred to ~1024 on
// the dev container, with the two-level split worth ~10-15% over a plain
// geqr2 panel at N >= 512. Those are not the sizes the jobs run: at or
// below qrSmall the blocked path does not run at all.
const qrBlock = 32

// qrInner is the sub-panel width of the two-level panel factorization:
// columns are eliminated unblocked qrInner at a time, and the rest of the
// panel is updated through the compact-WY block reflector (a skinny GEMM)
// instead of column-at-a-time reflector sweeps. It is also the widest span
// of the scalar larft: the panel's T is assembled from its sub-panels'
// factors (panelT), never re-derived across the whole panel.
const qrInner = 16

// qrSmall is the largest k = min(m, n) that QRFactor and FormQ take
// unblocked: geqr2 over the whole matrix, Q accumulated backwards, no T, no
// larfb and no GEMM. There the cost is per reflector, not arithmetic — at
// N = 36 the blocked path pays for two panels, their T merges and a dozen
// tiny GEMMs — and each reflector is one fused blas.ApplyReflector call.
// The crossover was measured on QR+FormQ at N = 16..96 (DESIGN.md §3b):
// unblocked is 2x faster at N = 16..36, still ahead at 80, level at 88 and
// behind at 96.
const qrSmall = 80

// QR holds a Householder QR factorization computed in place: R occupies the
// upper triangle of A and the reflector vectors V the strict lower
// trapezoid, with scalar factors in Tau (LAPACK DGEQRF layout).
//
// t is the qrBlock x k strip of compact-WY factors, pooled with Tau (newQR):
// panel j's upper triangular T sits in columns [j, j+jb). The factorization
// writes each T as it forms it for its own trailing update and nt counts
// the leading columns done; MulQ and FormQ read the strip and first form
// what is missing (formT), so the first of them must not run concurrently
// with another on the same QR.
type QR struct {
	A   *mat.Dense
	Tau []float64
	t   mat.Dense
	nt  int
}

// QRFactor computes the Householder QR factorization of a, overwriting it.
// Above qrSmall this mirrors DGEQRF: unblocked panel factorization, block
// reflector T formation, and a GEMM-rich trailing update — the "mostly
// level 3" routine of the paper's Figure 1. At or below it the whole matrix
// is one unblocked geqr2 (DGEQR2), and MulQ forms the T it needs lazily.
//
// QRFactor is a wrapper small enough to inline, so a caller that releases
// the QR before returning keeps the header on its own stack.
//
//qmc:hot
func QRFactor(a *mat.Dense) *QR {
	qr := &QR{}
	qr.factor(a)
	return qr
}

// factor is QRFactor's body: it factors a into the fresh header qr.
//
//qmc:hot
func (qr *QR) factor(a *mat.Dense) {
	obs.Add(obs.OpQRFactorizations, 1)
	qr.init(a)
	if len(qr.Tau) <= qrSmall {
		geqr2(a, qr.Tau)
	} else {
		qr.factorBlocked()
	}
	check.Finite("lapack.QRFactor", a)
	check.FiniteSlice("lapack.QRFactor tau", qr.Tau)
}

// factorBlocked is QRFactor's blocked path. The panel/reflector scratch is
// identical on every call for a given shape, so it comes from the shared
// pool.
func (qr *QR) factorBlocked() {
	a, tau := qr.A, qr.Tau
	m, n, k := a.Rows, a.Cols, len(tau)
	v := mat.GetScratch(m, qrBlock)
	wrk := mat.GetScratch(2*qrBlock, n)
	defer func() {
		mat.PutScratch(v)
		mat.PutScratch(wrk)
	}()
	for j := 0; j < k; j += qrBlock {
		jb := min(qrBlock, k-j)
		panel := a.View(j, j, m-j, jb)
		tt := qr.t.View(0, j, jb, jb)
		geqrPanel(panel, tau[j:j+jb], v, tt, wrk)
		if j+jb < n {
			// Copy the panel reflectors with explicit unit diagonal.
			vv := v.View(0, 0, m-j, jb)
			copyReflectors(panel, vv)
			panelT(vv, tau[j:j+jb], tt, (jb-1)/qrInner*qrInner, wrk)
			qr.nt = j + jb
			trail := a.View(j, j+jb, m-j, n-j-jb)
			larfb(vv, tt, true, trail, wrk)
		}
	}
}

// geqrPanel factors an m x jb panel in place like geqr2, but with a second
// level of blocking: sub-panels of qrInner columns are eliminated unblocked
// and then applied to the rest of the panel through their compact-WY block
// reflector, so most of the panel work runs as skinny GEMMs instead of
// column-at-a-time larf sweeps. Each sub-panel's T but the last's (which no
// update here needs) is left in its diagonal block of t, the panel's jb x jb
// factor, for panelT to build on. v and wrk are the caller's (larger)
// reflector scratch.
func geqrPanel(a *mat.Dense, tau []float64, v, t, wrk *mat.Dense) {
	m, jb := a.Rows, a.Cols
	k := min(m, jb)
	for j := 0; j < k; j += qrInner {
		ib := min(qrInner, k-j)
		sub := a.View(j, j, m-j, ib)
		geqr2(sub, tau[j:j+ib])
		if j+ib < jb {
			vv := v.View(0, 0, m-j, ib)
			copyReflectors(sub, vv)
			tt := t.View(j, j, ib, ib)
			larft(vv, tau[j:j+ib], tt)
			trail := a.View(j, j+ib, m-j, jb-j-ib)
			larfb(vv, tt, true, trail, wrk)
		}
	}
}

// geqr2 is the unblocked Householder QR of a panel (DGEQR2).
func geqr2(a *mat.Dense, tau []float64) {
	m, n := a.Rows, a.Cols
	k := min(m, n)
	for i := 0; i < k; i++ {
		col := a.Col(i)
		beta, t := larfg(col[i], col[i+1:])
		tau[i] = t
		if i+1 < n && t != 0 {
			// Apply H_i to the trailing columns. Temporarily set the unit
			// element so the reflector vector is contiguous.
			col[i] = 1
			blas.ApplyReflector(col[i:], t, a.View(i, i+1, m-i, n-i-1))
		}
		col[i] = beta
	}
}

// copyReflectors copies the unit lower trapezoid of the factored panel into
// dst, zeroing the upper triangle and setting the unit diagonal.
func copyReflectors(panel, dst *mat.Dense) {
	m, jb := panel.Rows, panel.Cols
	for c := 0; c < jb; c++ {
		dcol := dst.Col(c)
		pcol := panel.Col(c)
		for r := 0; r < c && r < m; r++ {
			dcol[r] = 0
		}
		if c < m {
			dcol[c] = 1
		}
		for r := c + 1; r < m; r++ {
			dcol[r] = pcol[r]
		}
	}
}

// R extracts the upper triangular factor into a new k x n matrix,
// k = min(m, n).
func (qr *QR) R() *mat.Dense {
	m, n := qr.A.Rows, qr.A.Cols
	r := mat.New(min(m, n), n)
	qr.RInto(r)
	return r
}

// RInto writes the upper triangular factor into r, which must be k x n with
// k = min(m, n). Entries below the diagonal are zeroed. Unlike R it performs
// no allocation, so the stratification loop can reuse one pooled matrix.
//
//qmc:hot
func (qr *QR) RInto(r *mat.Dense) {
	m, n := qr.A.Rows, qr.A.Cols
	k := min(m, n)
	if r.Rows != k || r.Cols != n {
		panic(fmt.Sprintf("lapack: RInto dimension mismatch: r is %dx%d, want %dx%d", r.Rows, r.Cols, k, n))
	}
	for j := 0; j < n; j++ {
		src := qr.A.Col(j)
		dst := r.Col(j)
		top := min(j+1, k)
		copy(dst[:top], src[:top])
		for i := top; i < k; i++ {
			dst[i] = 0
		}
	}
}

// formT forms the T of every panel the factorization did not: always the
// last (no trailing update needed it), all of them after QRPFactorLevel2.
// v and work are the caller's m x qrBlock and 2*qrBlock x >=qrInner scratch.
func (qr *QR) formT(v, work *mat.Dense) {
	m, k := qr.A.Rows, len(qr.Tau)
	for j := qr.nt; j < k; j += qrBlock {
		jb := min(qrBlock, k-j)
		vv := v.View(0, 0, m-j, jb)
		copyReflectors(qr.A.View(j, j, m-j, jb), vv)
		panelT(vv, qr.Tau[j:j+jb], qr.t.View(0, j, jb, jb), 0, work)
	}
	qr.nt = k
}

// MulQ applies Q (trans=false) or Q^T (trans=true) from the left to c in
// place, using the block reflectors (DORMQR, side = left).
//
//qmc:hot
func (qr *QR) MulQ(trans bool, c *mat.Dense) {
	m := qr.A.Rows
	if c.Rows != m {
		panic(fmt.Sprintf("lapack: MulQ dimension mismatch: Q is %dx%d but C has %d rows", m, m, c.Rows))
	}
	k := len(qr.Tau)
	v := mat.GetScratch(m, qrBlock)
	wrk := mat.GetScratch(2*qrBlock, max(c.Cols, qrInner))
	defer func() {
		mat.PutScratch(v)
		mat.PutScratch(wrk)
	}()
	qr.formT(v, wrk)
	np := (k + qrBlock - 1) / qrBlock
	for p := 0; p < np; p++ {
		// Q^T = H_k^T ... H_1^T takes the panels in forward order,
		// Q = H_1 ... H_k in reverse.
		j := p * qrBlock
		if !trans {
			j = (np - 1 - p) * qrBlock
		}
		jb := min(qrBlock, k-j)
		vv := v.View(0, 0, m-j, jb)
		copyReflectors(qr.A.View(j, j, m-j, jb), vv)
		larfb(vv, qr.t.View(0, j, jb, jb), trans, c.View(j, 0, m-j, c.Cols), wrk)
	}
}

// FormQ writes the explicit m x m orthogonal factor into q (DORGQR), by
// the unblocked backward accumulation at or below qrSmall reflectors and
// the panel walk above it.
//
//qmc:hot
func (qr *QR) FormQ(q *mat.Dense) {
	m := qr.A.Rows
	if q.Rows != m || q.Cols != m {
		panic(fmt.Sprintf("lapack: FormQ expects a %dx%d destination, got %dx%d", m, m, q.Rows, q.Cols))
	}
	if len(qr.Tau) <= qrSmall {
		qr.formQUnblocked(q)
	} else {
		qr.formQBlocked(q)
	}
}

// formQUnblocked is DORG2R: the reflectors are copied into the columns of q
// they own and accumulated last to first, H_i applied to q[i:, i+1:], which
// then holds H_{i+1} ... H_k applied to the identity (the rows above i are
// still zero), and its own column becomes H_i e_i = e_i - tau_i v_i. It
// reads A and Tau only, never the T strip.
func (qr *QR) formQUnblocked(q *mat.Dense) {
	m, k := qr.A.Rows, len(qr.Tau)
	for j := k; j < m; j++ {
		c := q.Col(j)
		clear(c)
		c[j] = 1
	}
	for i := k - 1; i >= 0; i-- {
		c, tau := q.Col(i), qr.Tau[i]
		copy(c[i+1:], qr.A.Col(i)[i+1:])
		if i+1 < m {
			c[i] = 1
			blas.ApplyReflector(c[i:], tau, q.View(i, i+1, m-i, m-i-1))
		}
		blas.Scal(-tau, c[i+1:])
		c[i] = 1 - tau
		clear(c[:i])
	}
}

// formQBlocked walks the panels last to first: Q[j:, j+jb:] already holds
// the product of the later panels and Q[:j, j:] is zero, so panel j is
// applied to that trailing block alone, and its own columns — H applied to
// E = [I; 0] — are E - V (T V1^T), V1 being the unit lower triangle on top
// of V. That product of two triangles is formed by hand, with no V^T C
// GEMM: (4/3)m^3 flops in all, where applying Q to a full identity costs
// 2m^3.
func (qr *QR) formQBlocked(q *mat.Dense) {
	m := qr.A.Rows
	k := len(qr.Tau)
	v := mat.GetScratch(m, qrBlock)
	wrk := mat.GetScratch(2*qrBlock, max(m, qrInner))
	defer func() {
		mat.PutScratch(v)
		mat.PutScratch(wrk)
	}()
	qr.formT(v, wrk)
	q.SetIdentity()
	for j := (k - 1) / qrBlock * qrBlock; j >= 0 && j < k; j -= qrBlock {
		jb := min(qrBlock, k-j)
		vv := v.View(0, 0, m-j, jb)
		copyReflectors(qr.A.View(j, j, m-j, jb), vv)
		tt := qr.t.View(0, j, jb, jb)
		nc := m - j - jb
		w2 := wrk.View(qrBlock, 0, jb, m-j)
		// w2 = T [V1^T | V^T Q[j:, j+jb:]]: column c of the triangular part
		// is the combination of T's first c+1 columns by row c of V1.
		for c := 0; c < jb; c++ {
			wc := w2.Col(c)
			for i := range wc {
				wc[i] = 0
			}
			for r := 0; r <= c; r++ {
				x, tr := vv.Col(r)[c], tt.Col(r)[:r+1]
				for i, tv := range tr {
					wc[i] += x * tv
				}
			}
		}
		if nc > 0 {
			w := wrk.View(0, 0, jb, nc)
			blas.Gemm(true, false, 1, vv, q.View(j, j+jb, m-j, nc), 0, w)
			blas.Gemm(false, false, 1, tt, w, 0, w2.View(0, jb, jb, nc))
		}
		blas.Gemm(false, false, -1, vv, w2, 1, q.View(j, j, m-j, m-j))
	}
}
