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
		swapRows(a, 0, j, piv, j, j+jb)
		swapRows(a, j+jb, n, piv, j, j+jb)
		if j+jb < n {
			// U block row: solve L11 * U12 = A12.
			l11 := a.View(j, j, jb, jb)
			a12 := a.View(j, j+jb, jb, n-j-jb)
			blas.Trsm(false, true, l11, a12)
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
			swapRows(a, j, j+jb, piv, j+c, j+c+1)
		}
		pivv := col[j+c]
		inv := 1 / pivv
		for r := j + c + 1; r < n; r++ {
			col[r] *= inv
		}
		// Rank-1 update of the rest of the panel: row j+c of it times the
		// column below the pivot, one call over the panel's columns.
		if c+1 < jb {
			blas.Rank1Update(col[j+c+1:n], a.Data[j+c+(j+c+1)*a.Stride:], a.Stride, a.View(j+c+1, j+c+1, n-j-c-1, jb-c-1))
		}
	}
	return ok
}

// Release returns Piv to the pivot pool (PutPivot) and clears it; the
// factorization must not be used afterwards. A second call is a no-op.
func (lu *LU) Release() { PutPivot(&lu.Piv) }

// swapRows applies the interchanges of piv[k0:k1] — row i with row piv[i],
// in ascending i — to columns [c0, c1) of a, DLASWP's way: all of them to
// one contiguous column, then the next.
func swapRows(a *mat.Dense, c0, c1 int, piv []int, k0, k1 int) {
	piv = piv[k0:k1]
	for c := c0; c < c1; c++ {
		col := a.Col(c)
		for i, p := range piv {
			if i += k0; p != i {
				col[i], col[p] = col[p], col[i]
			}
		}
	}
}

// Solve overwrites b (n x nrhs) with the solution of A*X = B.
func (lu *LU) Solve(b *mat.Dense) {
	n := lu.A.Rows
	if b.Rows != n {
		panic(fmt.Sprintf("lapack: LU.Solve dimension mismatch: A is %dx%d but B has %d rows", n, n, b.Rows))
	}
	swapRows(b, 0, b.Cols, lu.Piv, 0, n) // P b
	blas.Trsm(false, true, lu.A, b)      // L y = P b
	blas.Trsm(true, false, lu.A, b)      // U x = y
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
