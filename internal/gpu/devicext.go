package gpu

import (
	"fmt"
	"math"

	"questgo/internal/mat"
)

// Extended stream operations used by the hybrid QR / stratification
// (Section VII future work): sub-matrix transfers, column scaling, column
// norms and column permutation kernels. They execute at issue and have no
// command-graph node, so they refuse a capturing stream.

// eager panics when the stream is recording into a command graph: op would
// run now and be missing from every replay.
func (s *Stream) eager(op string) {
	if s.capture != nil {
		panic("gpu: " + op + " cannot be captured into a command graph")
	}
}

// Sub returns a view of the device matrix sharing its storage.
func (a *Matrix) Sub(i, j, rows, cols int) *Matrix {
	return &Matrix{dev: a.dev, m: a.m.View(i, j, rows, cols), rows: rows, cols: cols}
}

// GetSub downloads the (i, j)-anchored sub-matrix of src with the shape of
// dst.
func (s *Stream) GetSub(dst *mat.Dense, src *Matrix, i, j int) {
	s.eager("GetSub")
	s.dev.checkOwned(src)
	view := src.m.View(i, j, dst.Rows, dst.Cols)
	dst.CopyFrom(view)
	s.chargeTransfer(int64(dst.Rows)*int64(dst.Cols)*8, true)
}

// SetSub uploads src into the (i, j)-anchored sub-matrix of dst.
func (s *Stream) SetSub(dst *Matrix, i, j int, src *mat.Dense) {
	s.eager("SetSub")
	s.dev.checkOwned(dst)
	view := dst.m.View(i, j, src.Rows, src.Cols)
	view.CopyFrom(src)
	s.chargeTransfer(int64(src.Rows)*int64(src.Cols)*8, true)
}

// ScaleCols multiplies column j of a by v[j] (right diagonal scaling), a
// bandwidth-bound kernel like ScaleRows.
func (s *Stream) ScaleCols(a *Matrix, v *Matrix) {
	s.eager("ScaleCols")
	s.dev.checkOwned(a)
	s.dev.checkOwned(v)
	if v.cols != 1 || v.rows != a.cols {
		panic(fmt.Sprintf("gpu: ScaleCols dimension mismatch: a is %dx%d, v is %dx%d", a.rows, a.cols, v.rows, v.cols))
	}
	defer s.trackReal()()
	vv := v.m.Col(0)
	for j := 0; j < a.cols; j++ {
		col := a.m.Col(j)
		f := vv[j]
		for i := range col {
			col[i] *= f
		}
	}
	s.chargeKernel(float64(a.rows)*float64(a.cols), 16*float64(a.rows)*float64(a.cols), true)
}

// ColumnNorms computes the Euclidean norm of every column on the device
// (one bandwidth-bound reduction kernel) and downloads the n results —
// the device half of the pre-pivoting step.
func (s *Stream) ColumnNorms(a *Matrix, dst []float64) {
	s.eager("ColumnNorms")
	s.dev.checkOwned(a)
	if len(dst) != a.cols {
		panic(fmt.Sprintf("gpu: ColumnNorms length mismatch: a has %d cols but len(dst)=%d", a.cols, len(dst)))
	}
	defer s.trackReal()()
	for j := 0; j < a.cols; j++ {
		var scale, ssq float64 = 0, 1
		for _, x := range a.m.Col(j) {
			if x == 0 {
				continue
			}
			ax := math.Abs(x)
			if scale < ax {
				r := scale / ax
				ssq = 1 + ssq*r*r
				scale = ax
			} else {
				r := ax / scale
				ssq += r * r
			}
		}
		dst[j] = scale * math.Sqrt(ssq)
	}
	s.chargeKernel(2*float64(a.rows)*float64(a.cols), 8*float64(a.rows)*float64(a.cols), true)
	s.chargeTransfer(int64(a.cols)*8, true)
}

// PermuteCols gathers columns of a by perm in place (dst column j takes
// source column perm[j]) — one gather kernel plus the tiny index upload.
func (s *Stream) PermuteCols(a *Matrix, perm []int) {
	s.eager("PermuteCols")
	s.dev.checkOwned(a)
	if len(perm) != a.cols {
		panic(fmt.Sprintf("gpu: PermuteCols length mismatch: a has %d cols but len(perm)=%d", a.cols, len(perm)))
	}
	defer s.trackReal()()
	tmp := mat.New(a.rows, a.cols)
	for j, p := range perm {
		copy(tmp.Col(j), a.m.Col(p))
	}
	a.m.CopyFrom(tmp)
	s.chargeTransfer(int64(len(perm))*8, true)
	s.chargeKernel(0, 16*float64(a.rows)*float64(a.cols), true)
}

// SwapRows exchanges rows r1 and r2 of a over columns [c0, c1) — the
// pivoting primitive of the hybrid LU, bandwidth bound on the row pair.
func (s *Stream) SwapRows(a *Matrix, r1, r2, c0, c1 int) {
	s.eager("SwapRows")
	s.dev.checkOwned(a)
	if c1 > a.cols {
		c1 = a.cols
	}
	if r1 == r2 || c0 >= c1 {
		return
	}
	defer s.trackReal()()
	for c := c0; c < c1; c++ {
		col := a.m.Col(c)
		col[r1], col[r2] = col[r2], col[r1]
	}
	s.chargeKernel(0, 32*float64(c1-c0), true)
}

// Axpy computes dst += alpha * src element-wise on the device.
func (s *Stream) Axpy(alpha float64, src, dst *Matrix) {
	s.eager("Axpy")
	s.dev.checkOwned(src)
	s.dev.checkOwned(dst)
	if src.rows != dst.rows || src.cols != dst.cols {
		panic(fmt.Sprintf("gpu: Axpy dimension mismatch: src is %dx%d but dst is %dx%d", src.rows, src.cols, dst.rows, dst.cols))
	}
	defer s.trackReal()()
	for j := 0; j < src.cols; j++ {
		sc := src.m.Col(j)
		dc := dst.m.Col(j)
		for i := range sc {
			dc[i] += alpha * sc[i]
		}
	}
	s.chargeKernel(2*float64(src.rows)*float64(src.cols),
		24*float64(src.rows)*float64(src.cols), true)
}
