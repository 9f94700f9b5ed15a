package blas

import (
	"fmt"

	"questgo/internal/check"
	"questgo/internal/mat"
	"questgo/internal/obs"
)

// The Kronecker-factor products apply F = F_y ⊗ F_x, the kinetic
// propagator of one periodic Nx x Ny plane with sites x-fastest, to a tight
// N x N matrix (N = Nx·Ny) in 2N²(Nx + Ny) flops instead of a GEMM's 2N³.
// Each side is two stages, each a batch of small products against one
// factor, and each stage's element is the GEMM element for that product
// bit for bit (in the Go family, for non-NaN values; see kronGo): the FMA
// chain (the Go family's multiply-add chain) over the factor index,
// ascending from zero in slabs of gemmKC, finished by runMacro's
// write-back rule. So the stage between is rounded as a GEMM
// into a scratch matrix would round it, but it never leaves L1: the left
// side runs both stages on a batch of kronRows columns at a time, the
// right side on a block of kronRows rows, each reading X in place and
// storing C once.

// kronRows is the width of the left side's column batch and the height of
// the right side's row block: either way the stage between holds
// kronRows·N doubles, 18 KiB at N = 144, which stays in L1 beside X's.
const kronRows = 16

// KronWork returns the length of the scratch KronLeft and KronRight need
// for an N x N operand, min(N, kronRows)·N: an N x N matrix's storage
// always suffices.
func KronWork(n int) int { return min(n, kronRows) * n }

// KronLeft computes C = (F_y^T ⊗ F_x)·X for the N x N matrix X,
// N = Nx·Ny, fx being Nx x Nx and fy Ny x Ny: (F_y ⊗ F_x)·X for the
// symmetric factors of a ring's propagator. Column j of X, read as the
// Nx x Ny matrix X_j (sites x-fastest), becomes F_x X_j F_y, in the order
// the stages run:
//
//   - left x: T_j = F_x X_j, a chain over F_x's columns;
//   - left y: C_j = T_j F_y, a chain over F_y's rows, stored into column j.
//
// Each element's bits are those of GemmPacked(PackA(fx), X viewed as
// Nx x (Ny·N), ...) into a scratch T followed by GemmPacked(PackB(fy), T_b,
// ...) on every Nx x Ny block T_b of T. X and C must have a tight stride;
// C may be X. work holds at least KronWork(N) elements and must not
// overlap X or C. It charges obs one GEMM call per stage, of the stage's
// flops.
//
//qmc:hot
func KronLeft(fx, fy, x *mat.Dense, work []float64, c *mat.Dense) {
	nx, ny, n := kronShape("KronLeft", fx, fy, x, work, c)
	obs.AddGemm(nx, ny*n, nx)
	obs.AddGemm(nx, n*ny, ny)
	// A batch of jb columns: T_j is work[(j-j0)·N:], a column's length.
	jb := min(n, kronRows)
	for j0 := 0; j0 < n; j0 += jb {
		nb := min(jb, n-j0)
		kronStage(nx, nx, ny, fx.Data, fx.Stride, x.Data[j0*n:], nx, work, nx, nil, nil, nb, 0, n, n)
		kronStage(nx, ny, ny, work, nx, fy.Data, fy.Stride, c.Data[j0*n:], nx, nil, nil, nb, n, 0, n)
	}
	check.Finite("blas.KronLeft", c)
}

// KronRight computes C = diag(r)·X·(F_y ⊗ F_x)·diag(s) for the N x N
// matrix X, N = Nx·Ny, fx being Nx x Nx and fy Ny x Ny; r and s may be nil
// (no scaling). Column (x', y') of the product sums X's columns (x, y)
// with weight F_y(y, y') F_x(x, x'), in the order the stages run:
//
//   - right y: T(:, (x, y')) = sum_y X(:, (x, y)) F_y(y, y');
//   - right x: C(:, (x', y')) = sum_x T(:, (x, y')) F_x(x, x'), then the
//     scalings.
//
// Each element's bits are those of GemmPacked(PackB(fy), X viewed as
// (N·Nx) x Ny, ...) into a scratch T followed by GemmPacked(PackB(fx), T_b,
// r, s_b, C_b) on every N x Nx column block. X and C must have a tight
// stride; C may be X. work holds at least KronWork(N) elements and must not
// overlap X, C, r or s. It charges obs as KronLeft does.
//
//qmc:hot
func KronRight(fx, fy, x *mat.Dense, r, s, work []float64, c *mat.Dense) {
	nx, ny, n := kronShape("KronRight", fx, fy, x, work, c)
	checkScaling("row", r, n)
	checkScaling("column", s, n)
	obs.AddGemm(n*nx, ny, ny)
	obs.AddGemm(n, n, nx)
	w := min(n, kronRows)
	for i0 := 0; i0 < n; i0 += w {
		iw := min(w, n-i0)
		var ri []float64
		if r != nil {
			ri = r[i0 : i0+iw]
		}
		// T's column (x, y') is work[(x + y'·Nx)·w:], its first iw rows
		// live: right y is a batch over x, right x one over y'.
		kronStage(iw, ny, ny, x.Data[i0:], nx*n, fy.Data, fy.Stride, work, nx*w, nil, nil, nx, n, 0, w)
		kronStage(iw, nx, nx, work, w, fx.Data, fx.Stride, c.Data[i0:], n, ri, s, ny, nx*w, 0, nx*n)
	}
	check.Finite("blas.KronRight", c)
}

// kronShape checks a Kronecker product's operands and returns Nx, Ny and
// N.
func kronShape(name string, fx, fy, x *mat.Dense, work []float64, c *mat.Dense) (nx, ny, n int) {
	nx, ny = fx.Rows, fy.Rows
	n = nx * ny
	if fx.Cols != nx || fy.Cols != ny || nx == 0 || ny == 0 ||
		x.Rows != n || x.Cols != n || x.Stride != n || c.Rows != n || c.Cols != n || c.Stride != n {
		panic(fmt.Sprintf("blas: %s needs square factors and tight %d x %d operands: F_x is %dx%d, F_y %dx%d, X %dx%d (stride %d), C %dx%d (stride %d)",
			name, n, n, fx.Rows, fx.Cols, fy.Rows, fy.Cols, x.Rows, x.Cols, x.Stride, c.Rows, c.Cols, c.Stride))
	}
	if len(work) < KronWork(n) {
		panic(fmt.Sprintf("blas: %s scratch has length %d, want at least %d", name, len(work), KronWork(n)))
	}
	return nx, ny, n
}

// kronStage computes the batch of nb rows x m products C = A·B (A rows x k
// at leading dimension lda, B k x m at ldb, C at ldc; product p's operands
// p·abs, p·bbs and p·cbs elements on, its column scalings s[p·m:]) and
// scales them by r and s as a GEMM's k slabs would: the first slab's
// write-back is acc + 0, every later one's C + acc, and the last one's
// carries the scalings.
func kronStage(rows, k, m int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, r, s []float64, nb, abs, bbs, cbs int) {
	mode := wbZero
	for pc := 0; pc < k; pc += gemmKC {
		kc := min(gemmKC, k-pc)
		rs, ss := r, s
		if pc+kc < k {
			rs, ss = nil, nil
		}
		kron(rows, kc, m, a[pc*lda:], lda, b[pc:], ldb, c, ldc, mode, rs, ss, nb, abs, bbs, cbs)
		mode = 0
	}
}

// kronGo is the portable body of a batch of Kronecker-factor stage
// products: for p < nb,
//
//	C_p[i, q] = sum_t A_p[t*lda + i] * B_p[t + q*ldb]   t in [0, k), ascending
//
// for i < rows, q < m, with A_p = a[p*abs:], B_p = b[p*bbs:] and
// C_p = c[p*cbs:], each sum a chain from zero finished by runMacro's
// write-back (mode wbZero: acc + 0, else C + acc, then · r[i], then
// · s[p*m + q], each factor left out when nil). The chain is written as
// microKernel4x4's, so a non-NaN element's bits are those of the portable
// GEMM. A NaN is only a NaN: where two NaNs meet, the payload that survives
// follows the compiler's choice of destination register, which differs
// between this loop and microKernel4x4 and even between the elements of
// that kernel's tile.
func kronGo(rows, k, m int, a []float64, lda int, b []float64, ldb int, c []float64, ldc, mode int, r, s []float64, nb, abs, bbs, cbs int) {
	var acc [16]float64
	for p := 0; p < nb; p++ {
		ap, bp, cp := a[p*abs:], b[p*bbs:], c[p*cbs:]
		for q := 0; q < m; q++ {
			bq := bp[q*ldb : q*ldb+k]
			for i0 := 0; i0 < rows; i0 += len(acc) {
				// Sixteen rows' chains side by side, t outermost: each is
				// still acc += a·b over t ascending from zero.
				cq := cp[q*ldc+i0 : q*ldc+min(i0+len(acc), rows)]
				ac := acc[:len(cq)]
				clear(ac)
				for t, bt := range bq {
					at := ap[t*lda+i0 : t*lda+i0+len(ac)]
					for i, v := range at {
						ac[i] += v * bt
					}
				}
				for i, v := range ac {
					if mode&wbZero != 0 {
						v += 0
					} else {
						v += cq[i]
					}
					if r != nil {
						v *= r[i0+i]
					}
					if s != nil {
						v *= s[p*m+q]
					}
					cq[i] = v
				}
			}
		}
	}
}
