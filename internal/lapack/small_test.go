package lapack

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"questgo/internal/blas"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// qrShapes are the m x n shapes the small-path tests factor: every square
// size up to eight past the crossover, and tall and wide ones on either
// side of it.
func qrShapes() [][2]int {
	var shapes [][2]int
	for n := 1; n <= qrSmall+8; n++ {
		shapes = append(shapes, [2]int{n, n})
	}
	for _, n := range []int{1, 5, 16, 36, qrSmall - 1, qrSmall, qrSmall + 1} {
		shapes = append(shapes, [2]int{n + 7, n}, [2]int{n, n + 7})
	}
	return shapes
}

// stridedCopy returns a copy of src in a view of leading dimension
// src.Rows+3 over a NaN-filled array, so a read outside the view poisons
// the factorization.
func stridedCopy(src *mat.Dense) *mat.Dense {
	ld := src.Rows + 3
	back := make([]float64, ld*src.Cols+ld)
	for i := range back {
		back[i] = math.NaN()
	}
	a := (&mat.Dense{Rows: src.Rows + 3, Cols: src.Cols + 1, Stride: ld, Data: back}).View(1, 0, src.Rows, src.Cols)
	a.CopyFrom(src)
	return a
}

// TestSmallQRAccuracy: QRFactor and FormQ on both sides of qrSmall, on
// contiguous and strided storage, reproduce A (‖A − QR‖ ≤ 1e-14·N·‖A‖) with
// an orthogonal Q (‖QᵀQ − I‖ ≤ 1e-14·N), in the max norm.
func TestSmallQRAccuracy(t *testing.T) {
	r := rng.New(71)
	for _, sh := range qrShapes() {
		m, n := sh[0], sh[1]
		orig := randomDense(r, m, n)
		for _, strided := range []bool{false, true} {
			a := orig.Clone()
			if strided {
				a = stridedCopy(orig)
			}
			qr := QRFactor(a)
			q := mat.New(m, m)
			qr.FormQ(q)
			rr := mat.New(m, n)
			qr.RInto(rr.View(0, 0, min(m, n), n))
			qrm := mat.New(m, n)
			blas.Gemm(false, false, 1, q, rr, 0, qrm)
			size := float64(max(m, n))
			if d := maxAbsDiff(qrm, orig); !(d <= 1e-14*size*orig.MaxAbs()) {
				t.Fatalf("%dx%d strided=%v: |A - QR| = %.3e > %.3e", m, n, strided, d, 1e-14*size*orig.MaxAbs())
			}
			if e := orthoError(q); !(e <= 1e-14*size) {
				t.Fatalf("%dx%d strided=%v: |Q^T Q - I| = %.3e > %.3e", m, n, strided, e, 1e-14*size)
			}
			qr.Release()
		}
	}
}

// TestSmallQRMatchesBlocked: at or below qrSmall the unblocked path and the
// blocked one factor the same matrix to the same R up to the reflectors'
// signs (|diag R| to 1e-12 relative), and the explicit Q of the unblocked
// path is the operator MulQ applies through the lazily formed T (1e-14).
func TestSmallQRMatchesBlocked(t *testing.T) {
	r := rng.New(73)
	for _, sh := range qrShapes() {
		m, n := sh[0], sh[1]
		if min(m, n) > qrSmall {
			continue
		}
		orig := randomDense(r, m, n)
		small := QRFactor(orig.Clone())
		blocked := newQR(orig.Clone())
		blocked.factorBlocked()
		for i := range small.Tau {
			s, b := math.Abs(small.A.At(i, i)), math.Abs(blocked.A.At(i, i))
			if d := math.Abs(s - b); !(d <= 1e-12*b) {
				t.Fatalf("%dx%d: |R(%d,%d)| is %v unblocked, %v blocked", m, n, i, i, s, b)
			}
		}
		q, qi := mat.New(m, m), mat.Identity(m)
		small.FormQ(q)
		small.MulQ(false, qi)
		if d := maxAbsDiff(q, qi); !(d <= 1e-14) {
			t.Fatalf("%dx%d: FormQ differs from MulQ(false, I) by %.3e", m, n, d)
		}
		small.Release()
		blocked.Release()
	}
}

// larfRef is the reflector update lapack made before blas.ApplyReflector:
// the Dot of every column, then the Axpy of every column.
func larfRef(v []float64, tau float64, c *mat.Dense) {
	if tau == 0 {
		return
	}
	w := make([]float64, c.Cols)
	for j := range w {
		w[j] = blas.Dot(c.Col(j), v)
	}
	for j, wj := range w {
		blas.Axpy(-tau*wj, v, c.Col(j))
	}
}

// geqr2Ref is geqr2 on larfRef.
func geqr2Ref(a *mat.Dense, tau []float64) {
	m, n := a.Rows, a.Cols
	for i := 0; i < min(m, n); i++ {
		col := a.Col(i)
		beta, t := larfg(col[i], col[i+1:])
		tau[i] = t
		if i+1 < n && t != 0 {
			col[i] = 1
			larfRef(col[i:], t, a.View(i, i+1, m-i, n-i-1))
		}
		col[i] = beta
	}
}

// qrFactorRef is QRFactor's blocked path with its sub-panels eliminated by
// geqr2Ref.
func qrFactorRef(a *mat.Dense) *QR {
	m, n := a.Rows, a.Cols
	qr := newQR(a)
	k, tau := len(qr.Tau), qr.Tau
	v, wrk := mat.New(m, qrBlock), mat.New(2*qrBlock, n)
	for j := 0; j < k; j += qrBlock {
		jb := min(qrBlock, k-j)
		panel := a.View(j, j, m-j, jb)
		tt := qr.t.View(0, j, jb, jb)
		for s := 0; s < jb; s += qrInner {
			ib := min(qrInner, jb-s)
			geqr2Ref(panel.View(s, s, m-j-s, ib), tau[j+s:j+s+ib])
			if s+ib < jb {
				vv := v.View(0, 0, m-j-s, ib)
				copyReflectors(panel.View(s, s, m-j-s, ib), vv)
				larft(vv, tau[j+s:j+s+ib], tt.View(s, s, ib, ib))
				larfb(vv, tt.View(s, s, ib, ib), true, panel.View(s, s+ib, m-j-s, jb-s-ib), wrk)
			}
		}
		if j+jb < n {
			vv := v.View(0, 0, m-j, jb)
			copyReflectors(panel, vv)
			panelT(vv, tau[j:j+jb], tt, (jb-1)/qrInner*qrInner, wrk)
			qr.nt = j + jb
			larfb(vv, tt, true, a.View(j, j+jb, m-j, n-j-jb), wrk)
		}
	}
	return qr
}

// qrpPanelRef is qrpPanel on larfRef.
func qrpPanelRef(a *mat.Dense, j, jb int, tau []float64, jpvt []int) {
	m := a.Rows
	lnorms, lonorms := make([]float64, jb), make([]float64, jb)
	for s := range lnorms {
		lnorms[s] = blas.Nrm2(a.Col(j + s)[j:])
		lonorms[s] = lnorms[s]
	}
	for i := 0; i < jb; i++ {
		ji, p := j+i, i
		for s := i + 1; s < jb; s++ {
			if lnorms[s] > lnorms[p] {
				p = s
			}
		}
		if p != i {
			blas.Swap(a.Col(j+p), a.Col(ji))
			jpvt[j+p], jpvt[ji] = jpvt[ji], jpvt[j+p]
			lnorms[p], lonorms[p] = lnorms[i], lonorms[i]
		}
		col := a.Col(ji)
		beta, t := larfg(col[ji], col[ji+1:])
		tau[i] = t
		if i+1 < jb && t != 0 {
			col[ji] = 1
			larfRef(col[ji:], t, a.View(ji, ji+1, m-ji, jb-i-1))
		}
		col[ji] = beta
		for s := i + 1; s < jb; s++ {
			if lnorms[s] == 0 {
				continue
			}
			r := math.Abs(a.At(ji, j+s)) / lnorms[s]
			temp := math.Max(1-r*r, 0)
			if temp*(lnorms[s]/lonorms[s])*(lnorms[s]/lonorms[s]) <= tol3z {
				lnorms[s] = 0
				if ji+1 < m {
					lnorms[s] = blas.Nrm2(a.Col(j + s)[ji+1:])
				}
				lonorms[s] = lnorms[s]
			} else {
				lnorms[s] *= math.Sqrt(temp)
			}
		}
	}
}

// qrpFactorRef is QRPFactor with its panels factored by qrpPanelRef and its
// starting norms taken column by column.
func qrpFactorRef(a *mat.Dense) (*QR, []int) {
	m, n := a.Rows, a.Cols
	qr := newQR(a)
	k, tau := len(qr.Tau), qr.Tau
	jpvt, norms, onorms := make([]int, n), make([]float64, n), make([]float64, n)
	for j := range jpvt {
		jpvt[j], norms[j] = j, blas.Nrm2(a.Col(j))
		onorms[j] = norms[j]
	}
	v, wrk := mat.New(m, qrpBlock), mat.New(2*qrpBlock, n)
	for j := 0; j < k; j += qrpBlock {
		jb := min(qrpBlock, k-j)
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
				norms[p], onorms[p] = norms[s], onorms[s]
			}
		}
		qrpPanelRef(a, j, jb, tau[j:j+jb], jpvt)
		if j+jb < n {
			vv := v.View(0, 0, m-j, jb)
			copyReflectors(a.View(j, j, m-j, jb), vv)
			tt := qr.t.View(0, j, jb, jb)
			panelT(vv, tau[j:j+jb], tt, 0, wrk)
			qr.nt = j + jb
			larfb(vv, tt, true, a.View(j, j+jb, m-j, n-j-jb), wrk)
			downdateNorms(a, j, jb, norms, onorms)
		}
	}
	return qr, jpvt
}

// TestBlockedBitsUnmovedByReflectorKernel: above qrSmall, QRFactor+FormQ and
// QRPFactor+FormQ on the fused reflector kernel are bit for bit the same
// algorithms on the per-column Dot and Axpy calls they replaced.
func TestBlockedBitsUnmovedByReflectorKernel(t *testing.T) {
	r := rng.New(79)
	for _, n := range []int{qrSmall + 1, 100, 144} {
		orig := randomDense(r, n, n)
		// A graded copy too: the pivoted path then swaps columns.
		graded := orig.Clone()
		for j := 0; j < n; j++ {
			blas.Scal(math.Pow(10, float64((j*7)%n)/float64(n)*8-4), graded.Col(j))
		}
		for _, src := range []*mat.Dense{orig, graded} {
			for _, pivot := range []bool{false, true} {
				got, want := src.Clone(), src.Clone()
				var qg, qw *QR
				var pg, pw []int
				if pivot {
					qg, pg = QRPFactor(got)
					qw, pw = qrpFactorRef(want)
				} else {
					qg, qw = QRFactor(got), qrFactorRef(want)
				}
				fg, fw := mat.New(n, n), mat.New(n, n)
				qg.FormQ(fg)
				qw.FormQ(fw)
				same := slices.Equal(pg, pw) && bitwiseEqual(got.Data, want.Data) &&
					bitwiseEqual(qg.Tau, qw.Tau) && bitwiseEqual(fg.Data, fw.Data)
				if !same {
					t.Fatalf("N=%d pivot=%v: the factorization on the reflector kernel differs from the Dot/Axpy one", n, pivot)
				}
				qg.Release()
				qw.Release()
				PutPivot(&pg)
			}
		}
	}
}

func bitwiseEqual(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// BenchmarkQRFormQPaths times QR+FormQ on both of QRFactor's paths at the
// sizes around the crossover, the table qrSmall is chosen from:
//
//	go test ./internal/lapack -run NONE -bench QRFormQPaths -cpu 1
func BenchmarkQRFormQPaths(b *testing.B) {
	for _, n := range []int{16, 24, 32, 36, 48, 64, 72, 80, 88, 96} {
		src := randomDense(rng.New(uint64(n)), n, n)
		a, q := mat.New(n, n), mat.New(n, n)
		for _, path := range []struct {
			name string
			run  func(qr *QR)
		}{
			{"blocked", func(qr *QR) { qr.factorBlocked(); qr.formQBlocked(q) }},
			{"unblocked", func(qr *QR) { geqr2(qr.A, qr.Tau); qr.formQUnblocked(q) }},
		} {
			b.Run(fmt.Sprintf("N=%d/%s", n, path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					a.CopyFrom(src)
					qr := newQR(a)
					path.run(qr)
					qr.Release()
				}
			})
		}
	}
}
