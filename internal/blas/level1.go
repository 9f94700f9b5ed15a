// Package blas implements the dense kernels (BLAS levels 1-3) that the
// LAPACK-style factorizations and the DQMC Green's function code build on.
//
// The paper's performance analysis rests on the throughput hierarchy
// DGEMM > DGEQRF > DGEQP3: matrix-matrix products are compute bound, the
// blocked QR is mostly level 3 with a level-2 panel, and the pivoted QR is
// level-2 bound because every pivot choice requires a matrix-vector product
// to refresh column norms. This package reproduces that hierarchy in pure
// Go plus one vector layer: Gemm is blocked, packed and parallel over an
// 8x8 AVX-512 or 8x4 AVX2/FMA micro-kernel, and the stride-1 loops every
// other routine reduces to — axpy, its column-blocked form axpyCols, the
// rank-1 update that makes one axpy per column, dot, the Householder
// reflector update that fuses a dot and an axpy per column, the diagonal
// scalings of a product's write-back, and the two packing copies — run as
// AVX2 kernels on the same CPUs (gemm_amd64.go). KronLeft and KronRight
// apply a Kronecker product of two small factors, the separable kinetic
// propagator, to an N x N matrix in one pass per side (kron.go): the
// micro-kernel's FMA chain and write-back over unpacked operands, with
// the bits of the two GEMM stages it fuses (in the portable family, NaN
// payloads aside).
// The Go loops in this package are the portable bodies: what a purego or
// non-amd64 build runs everywhere, and what an AVX2 build runs on partial
// panels only.
package blas

import (
	"fmt"
	"math"

	"questgo/internal/mat"
)

// Dot returns x . y over len(x) elements with unit stride.
func Dot(x, y []float64) float64 {
	if len(y) < len(x) {
		panic(fmt.Sprintf("blas: Dot length mismatch: len(x)=%d len(y)=%d", len(x), len(y)))
	}
	return dot(x, y)
}

// dotGo is the portable body of dot: four partial sums over blocks of four,
// the remainder into the first.
func dotGo(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		s0 += x[i] * y[i]
	}
	return s0 + s1 + s2 + s3
}

// Axpy computes y += alpha*x over len(x) elements.
func Axpy(alpha float64, x, y []float64) {
	if alpha == 0 {
		return
	}
	if len(y) < len(x) {
		panic(fmt.Sprintf("blas: Axpy length mismatch: len(x)=%d len(y)=%d", len(x), len(y)))
	}
	axpy(alpha, x, y)
}

// axpyGo is the portable body of axpy.
func axpyGo(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// AxpyCols computes y[i] = scale * (y0[i*incy0] + sum_t x[t*incx] * A[i, t])
// for i < n over the m columns of the column-major n x m matrix held in a
// with leading dimension lda. Each element's sum is bit for bit what the m
// calls Axpy(x[t*incx], A[:n, t], y) make of it in ascending t, a column
// whose coefficient is ±0 skipped as Axpy skips it, and the scaling is one
// multiply after it: with y0 = y, incy0 = 1 and scale = 1, AxpyCols is those
// calls. y0 may be y itself (incy0 1) and otherwise must not overlap it. The
// vector kernel loads each block of rows from y0 once, keeps it in registers
// across the columns instead of re-reading and re-writing it once per call,
// and scales it on the way out to y.
func AxpyCols(n, m int, a []float64, lda int, x []float64, incx int, y0 []float64, incy0 int, scale float64, y []float64) {
	if n < 0 || m < 0 || lda < max(n, 1) || incx < 1 || incy0 < 1 {
		panic(fmt.Sprintf("blas: AxpyCols bad shape: n=%d m=%d lda=%d incx=%d incy0=%d", n, m, lda, incx, incy0))
	}
	if n == 0 {
		return
	}
	if len(y) < n || len(y0) < (n-1)*incy0+1 || m > 0 && (len(a) < (m-1)*lda+n || len(x) < (m-1)*incx+1) {
		panic(fmt.Sprintf("blas: AxpyCols length mismatch: n=%d m=%d lda=%d incx=%d incy0=%d len(a)=%d len(x)=%d len(y0)=%d len(y)=%d",
			n, m, lda, incx, incy0, len(a), len(x), len(y0), len(y)))
	}
	axpyCols(n, m, a, lda, x, incx, y0, incy0, scale, y)
}

// axpyColsGo is the portable body of axpyCols: the gather from y0, the Axpy
// calls themselves, then the scaling.
func axpyColsGo(n, m int, a []float64, lda int, x []float64, incx int, y0 []float64, incy0 int, scale float64, y []float64) {
	y = y[:n]
	for i := range y {
		y[i] = y0[i*incy0]
	}
	for t := 0; t < m; t++ {
		if alpha := x[t*incx]; alpha != 0 {
			axpyGo(alpha, a[t*lda:t*lda+n], y)
		}
	}
	for i := range y {
		y[i] *= scale
	}
}

// Rank1Update computes A[:, j] -= y[j*incy]*x for every column j of a,
// len(x) = a.Rows: bit for bit the a.Cols calls Axpy(-y[j*incy], x, A[:, j])
// in ascending j, a column whose coefficient is ±0 skipped as Axpy skips it.
// The vector kernel makes them in one call. x and y must not overlap a.
//
//qmc:hot
func Rank1Update(x, y []float64, incy int, a *mat.Dense) {
	m, n := a.Rows, a.Cols
	if len(x) != m || incy < 1 || n > 0 && len(y) < (n-1)*incy+1 {
		panic(fmt.Sprintf("blas: Rank1Update dimension mismatch: len(x)=%d len(y)=%d incy=%d but A is %dx%d", len(x), len(y), incy, m, n))
	}
	rank1(m, n, x, y, incy, a.Data, a.Stride)
}

// rank1Go is the portable body of rank1: the Axpy calls of the m x n matrix
// in a (leading dimension lda).
func rank1Go(m, n int, x, y []float64, incy int, a []float64, lda int) {
	x = x[:m]
	for j := 0; j < n; j++ {
		if alpha := -y[j*incy]; alpha != 0 {
			axpyGo(alpha, x, a[j*lda:j*lda+m])
		}
	}
}

// ApplyReflector applies the Householder reflector H = I - tau*v*v^T from
// the left to c, len(v) = c.Rows: for each column, w = Dot(c[:, j], v) and
// then Axpy(-tau*w, v, c[:, j]), so a column whose coefficient is ±0 is
// skipped as Axpy skips it and tau = 0 leaves c alone. The result is bit for
// bit those calls on every input; the vector kernel makes them in one call
// instead of 2*c.Cols, each column's dot and update back to back while the
// column is in cache. v must not overlap c.
//
//qmc:hot
func ApplyReflector(v []float64, tau float64, c *mat.Dense) {
	if len(v) != c.Rows {
		panic(fmt.Sprintf("blas: ApplyReflector dimension mismatch: len(v)=%d but C is %dx%d", len(v), c.Rows, c.Cols))
	}
	if tau == 0 || len(v) == 0 || c.Cols == 0 {
		return
	}
	applyReflector(len(v), c.Cols, v, tau, c.Data, c.Stride)
}

// applyReflectorGo is the portable body of applyReflector: the Dot and the
// Axpy of each column of the m x n matrix in c (leading dimension ldc).
func applyReflectorGo(m, n int, v []float64, tau float64, c []float64, ldc int) {
	v = v[:m]
	for j := 0; j < n; j++ {
		col := c[j*ldc : j*ldc+m]
		if alpha := -tau * dotGo(col, v); alpha != 0 {
			axpyGo(alpha, v, col)
		}
	}
}

// Scal computes x *= alpha.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Nrm2 returns the Euclidean norm of x, guarding against overflow and
// underflow in the same way as the reference BLAS. The graded matrices in
// the stratification algorithm have columns spanning many orders of
// magnitude, so the naive sum of squares is not safe in general — but it is
// exact to rounding whenever it lands in [nrm2Lo, MaxFloat64]: no partial
// sum overflowed, and a square small enough to have lost bits to underflow
// is below 2^-1022 <= nrm2Lo*2^-52, under the sum's own rounding error. So
// the sum of squares goes through dot first, and only a result outside that
// interval (or NaN) falls through to the scaled accumulation.
func Nrm2(x []float64) float64 {
	const nrm2Lo = 0x1p-970
	if ssq := dot(x, x); ssq >= nrm2Lo && ssq <= math.MaxFloat64 {
		return math.Sqrt(ssq)
	}
	var scale float64
	ssq := 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Idamax returns the index of the element of largest absolute value,
// or -1 for an empty slice.
func Idamax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := math.Abs(x[0]), 0
	for i := 1; i < len(x); i++ {
		if a := math.Abs(x[i]); a > best {
			best, bi = a, i
		}
	}
	return bi
}

// Swap exchanges x and y element-wise.
func Swap(x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: Swap length mismatch: len(x)=%d len(y)=%d", len(x), len(y)))
	}
	for i := range x {
		x[i], y[i] = y[i], x[i]
	}
}
