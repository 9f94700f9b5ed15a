package gpu

import (
	"fmt"
	"math"

	"questgo/internal/greens"
	"questgo/internal/mat"
)

// This file completes the device offload of the Green's function
// evaluation: a hybrid LU factorization (CPU panel pivoting + device
// trailing GEMMs, the DGETRF analogue of the hybrid QR) and the final
// stabilized solve G = (D_b Q^T + D_s T)^{-1} D_b Q^T executed with
// device-resident level-3 work. Together with StratifyHybrid this puts
// the entire Algorithm 3 pipeline of the paper's Section VII on the
// accelerator.

const hybridLUBlock = 32

// HybridLU is a device-resident LU factorization with partial pivoting.
type HybridLU struct {
	s   *Stream
	a   *Matrix
	piv []int
	n   int
}

// LUFactorHybrid factors the square device matrix a in place on stream s
// (Solve issues there too): the panel (including pivot search and row
// swaps, which are latency-bound) runs on the CPU on a downloaded strip; the
// trailing update is one device TRSM substitute (small triangular solve on
// CPU) plus a device GEMM.
func LUFactorHybrid(s *Stream, a *Matrix) *HybridLU {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("gpu: LUFactorHybrid expects a square matrix, got %dx%d", a.rows, a.cols))
	}
	h := &HybridLU{s: s, a: a, piv: make([]int, n), n: n}
	panel := mat.New(n, hybridLUBlock)
	for j := 0; j < n; j += hybridLUBlock {
		jb := hybridLUBlock
		if j+jb > n {
			jb = n - j
		}
		// Download the full-height panel columns [j, j+jb).
		ph := panel.View(0, 0, n, jb)
		s.GetSub(ph, a, 0, j)
		// Factor rows [j, n) of the panel on the CPU with partial
		// pivoting; record global pivots and apply the swaps to the whole
		// panel (rows above j belong to U and swap too... they do not:
		// LAPACK swaps only within [j, n)). Pivot search over [j+c, n).
		for c := 0; c < jb; c++ {
			col := ph.Col(c)
			p := j + c
			best := math.Abs(col[p])
			for r := j + c + 1; r < n; r++ {
				if v := math.Abs(col[r]); v > best {
					best, p = v, r
				}
			}
			h.piv[j+c] = p
			if p != j+c {
				for cc := 0; cc < jb; cc++ {
					pc := ph.Col(cc)
					pc[j+c], pc[p] = pc[p], pc[j+c]
				}
			}
			pivv := col[j+c]
			if pivv != 0 {
				inv := 1 / pivv
				for r := j + c + 1; r < n; r++ {
					col[r] *= inv
				}
			}
			for cc := c + 1; cc < jb; cc++ {
				ccol := ph.Col(cc)
				f := ccol[j+c]
				if f == 0 {
					continue
				}
				for r := j + c + 1; r < n; r++ {
					ccol[r] -= f * col[r]
				}
			}
		}
		// Upload the factored panel.
		s.SetSub(a, 0, j, ph)
		// Apply this panel's row swaps to the rest of the matrix on the
		// device (left of the panel and right of it).
		for c := 0; c < jb; c++ {
			if p := h.piv[j+c]; p != j+c {
				s.SwapRows(a, j+c, p, 0, j)
				s.SwapRows(a, j+c, p, j+jb, n)
			}
		}
		if j+jb < n {
			// U block row: solve L11 U12 = A12 on the CPU (jb x (n-j-jb),
			// small triangular work), then the trailing GEMM on the device.
			a12 := mat.New(jb, n-j-jb)
			s.GetSub(a12, a, j, j+jb)
			l11 := ph.View(j, 0, jb, jb)
			trsmLowerUnit(l11, a12)
			s.SetSub(a, j, j+jb, a12)
			l21 := a.Sub(j+jb, j, n-j-jb, jb)
			u12 := a.Sub(j, j+jb, jb, n-j-jb)
			a22 := a.Sub(j+jb, j+jb, n-j-jb, n-j-jb)
			s.Dgemm(false, false, -1, l21, u12, 1, a22)
		}
	}
	return h
}

// trsmLowerUnit solves L X = B in place for unit lower triangular L.
func trsmLowerUnit(l, b *mat.Dense) {
	n := l.Rows
	for j := 0; j < b.Cols; j++ {
		x := b.Col(j)
		for k := 0; k < n; k++ {
			xk := x[k]
			if xk == 0 {
				continue
			}
			lc := l.Col(k)
			for i := k + 1; i < n; i++ {
				x[i] -= xk * lc[i]
			}
		}
	}
}

// Solve overwrites the device matrix b with the solution of A X = B,
// applying the pivots and both triangular solves through device-resident
// blocked operations (block solves on CPU, bulk GEMMs on device).
func (h *HybridLU) Solve(b *Matrix) {
	s := h.s
	n := h.n
	for i := 0; i < n; i++ {
		if p := h.piv[i]; p != i {
			s.SwapRows(b, i, p, 0, b.cols)
		}
	}
	// Forward substitution, blocked: for each diagonal block solve on the
	// CPU then eliminate below with a device GEMM.
	host := mat.New(hybridLUBlock, b.cols)
	diag := mat.New(hybridLUBlock, hybridLUBlock)
	for j := 0; j < n; j += hybridLUBlock {
		jb := hybridLUBlock
		if j+jb > n {
			jb = n - j
		}
		hb := host.View(0, 0, jb, b.cols)
		s.GetSub(hb, b, j, 0)
		dl := diag.View(0, 0, jb, jb)
		s.GetSub(dl, h.a, j, j)
		trsmLowerUnit(dl, hb)
		s.SetSub(b, j, 0, hb)
		if j+jb < n {
			l21 := h.a.Sub(j+jb, j, n-j-jb, jb)
			bj := b.Sub(j, 0, jb, b.cols)
			brest := b.Sub(j+jb, 0, n-j-jb, b.cols)
			s.Dgemm(false, false, -1, l21, bj, 1, brest)
		}
	}
	// Back substitution.
	start := ((n - 1) / hybridLUBlock) * hybridLUBlock
	for j := start; j >= 0; j -= hybridLUBlock {
		jb := hybridLUBlock
		if j+jb > n {
			jb = n - j
		}
		hb := host.View(0, 0, jb, b.cols)
		s.GetSub(hb, b, j, 0)
		du := diag.View(0, 0, jb, jb)
		s.GetSub(du, h.a, j, j)
		trsmUpper(du, hb)
		s.SetSub(b, j, 0, hb)
		if j > 0 {
			u01 := h.a.Sub(0, j, j, jb)
			bj := b.Sub(j, 0, jb, b.cols)
			babove := b.Sub(0, 0, j, b.cols)
			s.Dgemm(false, false, -1, u01, bj, 1, babove)
		}
	}
}

// trsmUpper solves U X = B in place for non-unit upper triangular U.
func trsmUpper(u, b *mat.Dense) {
	n := u.Rows
	for j := 0; j < b.Cols; j++ {
		x := b.Col(j)
		for k := n - 1; k >= 0; k-- {
			uc := u.Col(k)
			x[k] /= uc[k]
			xk := x[k]
			if xk == 0 {
				continue
			}
			for i := 0; i < k; i++ {
				x[i] -= xk * uc[i]
			}
		}
	}
}

// GreenFromUDTHybrid forms G = (D_b Q^T + D_s T)^{-1} D_b Q^T with the
// level-3 work on the device, issued on stream s: upload Q^T and T, scale
// rows with the device kernel, and run the hybrid LU solve.
func GreenFromUDTHybrid(s *Stream, u *greens.UDT) *mat.Dense {
	dev := s.dev
	n := u.Q.Rows
	db := make([]float64, n)
	ds := make([]float64, n)
	for i, v := range u.D {
		if a := math.Abs(v); a > 1 {
			db[i] = 1 / a
			ds[i] = math.Copysign(1, v)
		} else {
			db[i] = 1
			ds[i] = v
		}
	}
	qt := u.Q.Transpose()
	dqt := dev.Malloc(n, n)
	s.SetMatrix(dqt, qt)
	vb := dev.Malloc(n, 1)
	s.SetVector(vb, db)
	dqtScaled := dev.Malloc(n, n)
	s.ScaleRows(dqtScaled, dqt, vb) // D_b Q^T
	dt := dev.Malloc(n, n)
	s.SetMatrix(dt, u.T)
	vs := dev.Malloc(n, 1)
	s.SetVector(vs, ds)
	m := dev.Malloc(n, n)
	s.ScaleRows(m, dt, vs) // D_s T
	s.Axpy(1, dqtScaled, m)
	rhs := dev.Malloc(n, n)
	s.Dcopy(rhs, dqtScaled)
	lu := LUFactorHybrid(s, m)
	lu.Solve(rhs)
	out := mat.New(n, n)
	s.GetMatrix(out, rhs)
	dqt.Free()
	vb.Free()
	dqtScaled.Free()
	dt.Free()
	vs.Free()
	m.Free()
	rhs.Free()
	return out
}

// GreenHybrid is the complete hybrid Algorithm 3 Green's function
// evaluation: device stratification followed by the device-offloaded
// stabilized solve.
func GreenHybrid(s *Stream, chain []*mat.Dense) *mat.Dense {
	return GreenFromUDTHybrid(s, StratifyHybrid(s, chain))
}
