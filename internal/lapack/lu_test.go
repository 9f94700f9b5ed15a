package lapack

import (
	"fmt"
	"math"
	"testing"

	"questgo/internal/blas"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// luRef is LUFactor the way it was written before the rank-1 kernel and the
// column-by-column interchanges: one row pair swapped across the columns at
// a time, and getf2's panel update as one Axpy per column.
func luRef(a *mat.Dense) []int {
	n := a.Rows
	piv := make([]int, n)
	swap := func(r1, r2, c0, c1 int) {
		for c := c0; c < c1; c++ {
			col := a.Col(c)
			col[r1], col[r2] = col[r2], col[r1]
		}
	}
	for j := 0; j < n; j += luBlock {
		jb := min(luBlock, n-j)
		for c := 0; c < jb; c++ {
			col := a.Col(j + c)
			p := j + c + blas.Idamax(col[j+c:n])
			piv[j+c] = p
			if col[p] == 0 {
				continue
			}
			if p != j+c {
				swap(j+c, p, j, j+jb)
			}
			inv := 1 / col[j+c]
			for r := j + c + 1; r < n; r++ {
				col[r] *= inv
			}
			for cc := c + 1; cc < jb; cc++ {
				ccol := a.Col(j + cc)
				blas.Axpy(-ccol[j+c], col[j+c+1:n], ccol[j+c+1:n])
			}
		}
		for i := j; i < j+jb; i++ {
			if p := piv[i]; p != i {
				swap(i, p, 0, j)
				swap(i, p, j+jb, n)
			}
		}
		if j+jb < n {
			a12 := a.View(j, j+jb, jb, n-j-jb)
			blas.Trsm(false, true, a.View(j, j, jb, jb), a12)
			blas.Gemm(false, false, -1, a.View(j+jb, j, n-j-jb, jb), a12, 1, a.View(j+jb, j+jb, n-j-jb, n-j-jb))
		}
	}
	return piv
}

// TestLUBitsUnmovedByRank1Kernel: LUFactor and LU.Solve against luRef and a
// row-pair swap of the right-hand sides followed by the same two Trsm calls
// (blas pins Trsm to the per-column substitution), bit for bit, at every N
// through two LU panels and the Trsm block, and at the 12x12 lattice's N,
// with zero and negative-zero right-hand-side entries that the update must
// skip. Pure data movement and unchanged arithmetic order cannot move a bit.
func TestLUBitsUnmovedByRank1Kernel(t *testing.T) {
	sizes := []int{144, 200}
	for n := 1; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		r := rng.New(uint64(n) + 500)
		src := randomDense(r, n, n)
		// Row 0 is the first pivot row (its leading entry dominates the
		// column), and its ±0 entries are coefficients the first panel
		// update must skip.
		src.Set(0, 0, 4)
		for j := 1; j < min(n, 4); j++ {
			src.Set(0, j, math.Copysign(0, float64(j%2)-0.5))
		}
		rhs := randomDense(r, n, n+3)
		for j := 0; j < rhs.Cols; j += 5 {
			rhs.Col(j)[0] = 0
			rhs.Col(j)[n-1] = math.Copysign(0, -1)
		}

		want := src.Clone()
		piv := luRef(want)
		a := src.Clone()
		lu, err := LUFactor(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bitwiseEqual(a.Data, want.Data) || fmt.Sprint(lu.Piv) != fmt.Sprint(piv) {
			t.Fatalf("n=%d: LUFactor differs from the per-column Axpy, row-pair swap factorization", n)
		}

		wantX := rhs.Clone()
		for i, p := range piv {
			for c := 0; c < wantX.Cols; c++ {
				col := wantX.Col(c)
				col[i], col[p] = col[p], col[i]
			}
		}
		blas.Trsm(false, true, want, wantX)
		blas.Trsm(true, false, want, wantX)
		x := rhs.Clone()
		lu.Solve(x)
		lu.Release()
		if !bitwiseEqual(x.Data, wantX.Data) {
			t.Fatalf("n=%d: LU.Solve differs from row-pair swaps and the two Trsm calls", n)
		}
	}
}

// BenchmarkLUSolve times the boundary solve of GreenFromUDTInto at the sizes
// the jobs run: LUFactor of an N x N matrix, LU.Solve with N right-hand
// sides, and beside them the N x N x N Gemm, which makes as many FMAs as
// the solve (and three times the factorization's):
//
//	go test ./internal/lapack -run NONE -bench LUSolve -cpu 1
func BenchmarkLUSolve(b *testing.B) {
	for _, n := range []int{16, 36, 64, 144} {
		r := rng.New(uint64(n))
		src := randomDense(r, n, n)
		for i := 0; i < n; i++ {
			src.Set(i, i, src.At(i, i)+float64(n)) // keeps the solve's values bounded
		}
		rhs := randomDense(r, n, n)
		a, x := mat.New(n, n), mat.New(n, n)
		b.Run(fmt.Sprintf("N=%d/factor", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.CopyFrom(src)
				lu, _ := LUFactor(a)
				lu.Release()
			}
		})
		a.CopyFrom(src)
		lu, _ := LUFactor(a)
		b.Run(fmt.Sprintf("N=%d/solve", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x.CopyFrom(rhs)
				lu.Solve(x)
			}
		})
		lu.Release()
		b.Run(fmt.Sprintf("N=%d/gemm", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blas.Gemm(false, false, 1, src, rhs, 0, x)
			}
		})
	}
}
