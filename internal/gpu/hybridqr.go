package gpu

import (
	"fmt"
	"sort"

	"questgo/internal/greens"
	"questgo/internal/lapack"
	"questgo/internal/mat"
	"questgo/internal/obs"
)

// This file implements the paper's Section VII future work: running "most
// of the stratification procedure (Algorithm 3) on the GPU". The split
// follows the hybrid dense-QR designs the paper cites (Tomov et al.;
// Agullo et al.): the level-2 Householder panel factorization stays on the
// CPU, where its serial column operations are cheap, while every level-3
// piece — the trailing block-reflector updates, the Q accumulation, the
// chain products and the T updates — runs on the (simulated) device.

// hybridQRBlock is the panel width; matches the CPU blocked QR.
const hybridQRBlock = 32

// HybridQR holds a device-resident QR factorization produced by
// QRFactorHybrid: R on and above the diagonal of A, panels' reflectors
// kept host-side for re-application.
type HybridQR struct {
	s      *Stream
	a      *Matrix // factored matrix on the device
	panels []*lapack.Panel
	starts []int
	m, n   int
}

// QRFactorHybrid factors the device-resident matrix a in place, issuing on
// stream s (as does everything later done with the result). Per panel:
// download the panel (m-j x nb strip), factor it on the CPU, upload V and
// T, and update the trailing matrix with three device GEMMs. It performs a
// full QR without going through lapack.QRFactor, so it charges the
// factorization counter itself (the device GEMMs charge their own flops).
//
//qmc:charges OpQRFactorizations
func QRFactorHybrid(s *Stream, a *Matrix) *HybridQR {
	obs.Add(obs.OpQRFactorizations, 1)
	m, n := a.rows, a.cols
	h := &HybridQR{s: s, a: a, m: m, n: n}
	k := m
	if n < k {
		k = n
	}
	hostPanel := mat.New(m, hybridQRBlock)
	for j := 0; j < k; j += hybridQRBlock {
		jb := hybridQRBlock
		if j+jb > k {
			jb = k - j
		}
		rows := m - j
		// Download the panel strip.
		ph := hostPanel.View(0, 0, rows, jb)
		s.GetSub(ph, a, j, j)
		panel := lapack.FactorPanel(ph)
		// Write the factored panel (R + reflectors) back.
		s.SetSub(a, j, j, ph)
		h.panels = append(h.panels, panel)
		h.starts = append(h.starts, j)
		if j+jb < n {
			h.applyPanelDevice(panel, j, j+jb, n-j-jb, true)
		}
	}
	return h
}

// applyPanelDevice applies (I - V op(T) V^T) to the device sub-matrix
// A[rowStart:, colStart:colStart+cols) with three device GEMMs. The V/T/W
// scratch is freed before returning so repeated factorizations hold the
// device footprint steady.
func (h *HybridQR) applyPanelDevice(p *lapack.Panel, rowStart, colStart, cols int, trans bool) {
	s, dev := h.s, h.s.dev
	rows := h.m - rowStart
	jb := p.V.Cols
	dv := dev.Malloc(rows, jb)
	s.SetMatrix(dv, p.V)
	dt := dev.Malloc(jb, jb)
	s.SetMatrix(dt, p.T)
	sub := h.a.Sub(rowStart, colStart, rows, cols)
	w := dev.Malloc(jb, cols)
	w2 := dev.Malloc(jb, cols)
	s.Dgemm(true, false, 1, dv, sub, 0, w)    // W = V^T C
	s.Dgemm(trans, false, 1, dt, w, 0, w2)    // W2 = op(T) W
	s.Dgemm(false, false, -1, dv, w2, 1, sub) // C -= V W2
	dv.Free()
	dt.Free()
	w.Free()
	w2.Free()
}

// R extracts the upper triangular factor to the host.
func (h *HybridQR) R() *mat.Dense {
	host := mat.New(h.m, h.n)
	h.s.GetMatrix(host, h.a)
	k := h.m
	if h.n < k {
		k = h.n
	}
	r := mat.New(k, h.n)
	for j := 0; j < h.n; j++ {
		top := j + 1
		if top > k {
			top = k
		}
		copy(r.Col(j)[:top], host.Col(j)[:top])
	}
	return r
}

// FormQDevice overwrites q (device-resident, m x m) with the explicit
// orthogonal factor, applying the stored panels in reverse order on the
// device.
func (h *HybridQR) FormQDevice(q *Matrix) {
	if q.rows != h.m || q.cols != h.m {
		panic(fmt.Sprintf("gpu: FormQDevice expects a %dx%d destination, got %dx%d", h.m, h.m, q.rows, q.cols))
	}
	h.s.SetMatrix(q, mat.Identity(h.m))
	for i := len(h.panels) - 1; i >= 0; i-- {
		j := h.starts[i]
		h.applyPanelColsDevice(h.panels[i], j, q)
	}
}

// applyPanelColsDevice applies (I - V T V^T) to rows [rowStart, m) of the
// full-width device matrix q, freeing its scratch like applyPanelDevice.
func (h *HybridQR) applyPanelColsDevice(p *lapack.Panel, rowStart int, q *Matrix) {
	s, dev := h.s, h.s.dev
	rows := h.m - rowStart
	jb := p.V.Cols
	dv := dev.Malloc(rows, jb)
	s.SetMatrix(dv, p.V)
	dt := dev.Malloc(jb, jb)
	s.SetMatrix(dt, p.T)
	sub := q.Sub(rowStart, 0, rows, q.cols)
	w := dev.Malloc(jb, q.cols)
	w2 := dev.Malloc(jb, q.cols)
	s.Dgemm(true, false, 1, dv, sub, 0, w)
	s.Dgemm(false, false, 1, dt, w, 0, w2)
	s.Dgemm(false, false, -1, dv, w2, 1, sub)
	dv.Free()
	dt.Free()
	w.Free()
	w2.Free()
}

// StratifyHybrid runs Algorithm 3 with the chain products, trailing
// updates, Q accumulation and T updates on the device; only the panel
// factorizations, the column-norm sort and the diagonal bookkeeping stay
// on the host, everything issued on stream s. Input chain as for
// greens.StratifyPrePivot (application order); returns the UDT on the host.
// All device scratch is freed on exit, so the footprint is steady across
// calls.
func StratifyHybrid(s *Stream, chain []*mat.Dense) *greens.UDT {
	if len(chain) == 0 {
		panic("gpu: empty chain")
	}
	n := chain[0].Rows

	// First factorization: full QRP on the host (as in Algorithm 3 —
	// there is no grading to pre-sort yet), then move to the device. Since
	// the level-3 rewrite this rides lapack's blocked pre-pivoted panel
	// factorization, so the pivoted fallback no longer caps the hybrid
	// path at level-2 throughput; tau and the pivot vector go back to the
	// lapack pools once the host-side factors are extracted.
	first := chain[0].Clone()
	qrp, jpvt := lapack.QRPFactor(first)
	d := make([]float64, n)
	r := qrp.R()
	r.Diagonal(d)
	scaleInvRowsHost(r, d)
	t := mat.New(n, n)
	for j := 0; j < n; j++ {
		copy(t.Col(jpvt[j]), r.Col(j))
	}
	qHost := mat.New(n, n)
	qrp.FormQ(qHost)
	qrp.Release()
	lapack.PutPivot(&jpvt)

	dev := s.dev
	dq := dev.Malloc(n, n)
	s.SetMatrix(dq, qHost)
	dc := dev.Malloc(n, n)
	db := dev.Malloc(n, n)
	dvec := dev.Malloc(n, 1)
	dtm := dev.Malloc(n, n)
	dres := dev.Malloc(n, n)
	tHost := t
	perm := make([]int, n)
	norms := make([]float64, n)
	tTmp := mat.New(n, n)

	for i := 1; i < len(chain); i++ {
		// C = (B_i * Q) * D on the device.
		s.SetMatrix(db, chain[i])
		s.Dgemm(false, false, 1, db, dq, 0, dc)
		s.SetVector(dvec, d)
		s.ScaleCols(dc, dvec)
		// Column norms on the device, sort on the host (tiny data).
		s.ColumnNorms(dc, norms)
		for j := range perm {
			perm[j] = j
		}
		sort.SliceStable(perm, func(a, b int) bool { return norms[perm[a]] > norms[perm[b]] })
		s.PermuteCols(dc, perm)
		// Hybrid QR of the permuted C, in place on the device.
		h := QRFactorHybrid(s, dc)
		rr := h.R()
		rr.Diagonal(d)
		scaleInvRowsHost(rr, d)
		// T update on the device: T = (D^{-1} R) (P^T T).
		permuteRowsHost(tTmp, tHost, perm)
		s.SetMatrix(db, rr)
		s.SetMatrix(dtm, tTmp)
		s.Dgemm(false, false, 1, db, dtm, 0, dres)
		s.GetMatrix(tHost, dres)
		// Q for the next step.
		h.FormQDevice(dq)
	}
	qOut := mat.New(n, n)
	s.GetMatrix(qOut, dq)
	dq.Free()
	dc.Free()
	db.Free()
	dvec.Free()
	dtm.Free()
	dres.Free()
	return &greens.UDT{Q: qOut, D: d, T: tHost}
}

func scaleInvRowsHost(r *mat.Dense, d []float64) {
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			inv[i] = 0
		} else {
			inv[i] = 1 / v
		}
	}
	r.ScaleRows(inv)
}

func permuteRowsHost(dst, src *mat.Dense, perm []int) {
	for j := 0; j < src.Cols; j++ {
		s := src.Col(j)
		dcol := dst.Col(j)
		for i, p := range perm {
			dcol[i] = s[p]
		}
	}
}
