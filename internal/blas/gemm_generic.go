//go:build !amd64 || purego

package blas

// microKernel is the portable build's only kernel (see gemm_amd64.go).
func microKernel(kc int, a, b, c []float64, ldc, mode, iw, jw int, r, s []float64) {
	microKernel4x4(kc, a, b, c, ldc, mode, iw, jw, r, s)
}

// kron is the portable Kronecker-factor stage (see gemm_amd64.go).
func kron(rows, k, m int, a []float64, lda int, b []float64, ldb int, c []float64, ldc, mode int, r, s []float64, nb, abs, bbs, cbs int) {
	kronGo(rows, k, m, a, lda, b, ldb, c, ldc, mode, r, s, nb, abs, bbs, cbs)
}

// The stride-1 layer (see gemm_amd64.go) is the portable loops alone here.

func axpy(alpha float64, x, y []float64) { axpyGo(alpha, x, y) }

func axpyCols(n, m int, a []float64, lda int, x []float64, incx int, y0 []float64, incy0 int, scale float64, y []float64) {
	axpyColsGo(n, m, a, lda, x, incx, y0, incy0, scale, y)
}

func rank1(m, n int, x, y []float64, incy int, a []float64, lda int) {
	rank1Go(m, n, x, y, incy, a, lda)
}

func dot(x, y []float64) float64 { return dotGo(x, y) }

func applyReflector(m, n int, v []float64, tau float64, c []float64, ldc int) {
	applyReflectorGo(m, n, v, tau, c, ldc)
}

func packRows(dst, src []float64, ld, kc, w, iw int, alpha float64) {
	packRowsGo(dst, src, ld, kc, w, iw, alpha)
}

func packCols(dst, src []float64, ld, kc, w, jw int, alpha float64) {
	packColsGo(dst, src, ld, kc, w, jw, alpha)
}
