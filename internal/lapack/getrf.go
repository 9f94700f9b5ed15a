package lapack

import (
	"errors"
	"fmt"
	"math"

	"questgo/internal/blas"
	"questgo/internal/check"
	"questgo/internal/mat"
)

// luBlock is the panel width of the blocked LU factorization.
const luBlock = 32

// ErrSingular is returned when a pivot is exactly zero.
var ErrSingular = errors.New("lapack: matrix is singular")

// LU holds an LU factorization with partial pivoting (DGETRF layout):
// unit lower triangular L below the diagonal of A, U on and above it, and
// Piv recording the row interchanged with row i at step i.
type LU struct {
	A   *mat.Dense
	Piv []int
}

// LUFactor computes the blocked right-looking LU factorization of the
// square matrix a with partial pivoting, overwriting it. The factorization
// is returned by value and Piv comes from the pivot pool, so a caller that
// hands it back with Release factors and solves without allocating.
func LUFactor(a *mat.Dense) (LU, error) {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("lapack: LUFactor expects a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	piv := GetPivot(n)
	var singular bool
	for j := 0; j < n; j += luBlock {
		jb := min(luBlock, n-j)
		// Factor the panel A[j:n, j:j+jb] unblocked.
		if !getf2(a, j, jb, piv) {
			singular = true
		}
		// Apply the panel's row swaps to the left and right of the panel.
		for i := j; i < j+jb; i++ {
			p := piv[i]
			if p == i {
				continue
			}
			swapRowParts(a, i, p, 0, j)
			swapRowParts(a, i, p, j+jb, n)
		}
		if j+jb < n {
			// U block row: solve L11 * U12 = A12.
			l11 := a.View(j, j, jb, jb)
			a12 := a.View(j, j+jb, jb, n-j-jb)
			blas.Trsm(false, false, true, 1, l11, a12)
			// Trailing update: A22 -= L21 * U12.
			if j+jb < n {
				l21 := a.View(j+jb, j, n-j-jb, jb)
				a22 := a.View(j+jb, j+jb, n-j-jb, n-j-jb)
				blas.Gemm(false, false, -1, l21, a12, 1, a22)
			}
		}
	}
	lu := LU{A: a, Piv: piv}
	if singular {
		return lu, ErrSingular
	}
	check.Finite("lapack.LUFactor", a)
	return lu, nil
}

// getf2 factors the panel A[j:n, j:j+jb] with partial pivoting, recording
// global pivot rows in piv[j:j+jb]. It returns false if a zero pivot was
// found.
func getf2(a *mat.Dense, j, jb int, piv []int) bool {
	n := a.Rows
	ok := true
	for c := 0; c < jb; c++ {
		col := a.Col(j + c)
		// Pivot within the panel rows.
		rel := blas.Idamax(col[j+c : n])
		p := j + c + rel
		piv[j+c] = p
		if col[p] == 0 {
			ok = false
			continue
		}
		if p != j+c {
			swapRowParts(a, j+c, p, j, j+jb)
		}
		pivv := col[j+c]
		inv := 1 / pivv
		for r := j + c + 1; r < n; r++ {
			col[r] *= inv
		}
		// Rank-1 update of the rest of the panel.
		for cc := c + 1; cc < jb; cc++ {
			ccol := a.Col(j + cc)
			blas.Axpy(-ccol[j+c], col[j+c+1:n], ccol[j+c+1:n])
		}
	}
	return ok
}

// Release returns Piv to the pivot pool (PutPivot) and clears it; the
// factorization must not be used afterwards. A second call is a no-op.
func (lu *LU) Release() { PutPivot(&lu.Piv) }

// swapRowParts exchanges rows r1 and r2 over columns [c0, c1).
func swapRowParts(a *mat.Dense, r1, r2 int, c0, c1 int) {
	for c := c0; c < c1; c++ {
		col := a.Col(c)
		col[r1], col[r2] = col[r2], col[r1]
	}
}

// Solve overwrites b (n x nrhs) with the solution of A*X = B.
func (lu *LU) Solve(b *mat.Dense) {
	n := lu.A.Rows
	if b.Rows != n {
		panic(fmt.Sprintf("lapack: LU.Solve dimension mismatch: A is %dx%d but B has %d rows", n, n, b.Rows))
	}
	// Apply row interchanges to B.
	for i := 0; i < n; i++ {
		if p := lu.Piv[i]; p != i {
			swapRowParts(b, i, p, 0, b.Cols)
		}
	}
	blas.Trsm(false, false, true, 1, lu.A, b) // L y = P b
	blas.Trsm(true, false, false, 1, lu.A, b) // U x = y
}

// LogDet returns (log|det A|, sign of det A) from the factorization.
// DQMC tracks the sign of the fermion determinant this way.
func (lu *LU) LogDet() (logAbs float64, sign float64) {
	n := lu.A.Rows
	sign = 1
	for i := 0; i < n; i++ {
		if lu.Piv[i] != i {
			sign = -sign
		}
		d := lu.A.At(i, i)
		if d < 0 {
			sign = -sign
			d = -d
		}
		if d == 0 {
			return math.Inf(-1), 0
		}
		logAbs += math.Log(d)
	}
	return logAbs, sign
}

// Invert overwrites dst with the inverse of the factored matrix.
func (lu *LU) Invert(dst *mat.Dense) {
	n := lu.A.Rows
	if dst.Rows != n || dst.Cols != n {
		panic(fmt.Sprintf("lapack: LU.Invert dimension mismatch: A is %dx%d but dst is %dx%d", n, n, dst.Rows, dst.Cols))
	}
	dst.SetIdentity()
	lu.Solve(dst)
}
