package blas

import (
	"fmt"
	"sync"

	"questgo/internal/mat"
	"questgo/internal/parallel"
)

// trsmBlock is the diagonal-block size of the blocked solve: the unblocked
// solver handles trsmBlock rows at a time and the rest of the work is
// pushed into Gemm trailing updates, which run on the packed kernel.
const trsmBlock = 64

// Trsm solves T * X = B in place (B is overwritten by X) for a triangular
// T, the two "left side" variants the LU factorization and solve need:
//
//	upper=false, unit=true  : unit lower triangular (LU forward substitution)
//	upper=true,  unit=false : upper triangular (LU back substitution)
//
// The solve is blocked: each trsmBlock-sized diagonal block is solved
// unblocked (right-hand sides in parallel; see runSolve), then the
// remaining rows are updated with one Gemm rank update, so the bulk of the
// flops run through the packed kernel.
func Trsm(upper, unit bool, t, b *mat.Dense) {
	n := t.Rows
	if t.Cols != n || b.Rows != n {
		panic(fmt.Sprintf("blas: Trsm dimension mismatch: T is %dx%d, B is %dx%d", t.Rows, t.Cols, b.Rows, b.Cols))
	}
	if b.Cols == 0 || n == 0 {
		return
	}
	// Like the GEMM path, the parallel body is a pre-bound method on a
	// pooled context so no closure is allocated per call or per block.
	ctx := trsmCtxPool.Get().(*trsmCtx)
	ctx.upper, ctx.unit = upper, unit
	ctx.t, ctx.b = *t, *b
	if n <= trsmBlock {
		ctx.solveDiag(0, n)
		ctx.release()
		return
	}
	// Forward sweeps eliminate solved blocks from the rows below; backward
	// sweeps from the rows above.
	if !upper {
		for k0 := 0; k0 < n; k0 += trsmBlock {
			k1 := min(k0+trsmBlock, n)
			ctx.solveDiag(k0, k1)
			if k1 < n {
				Gemm(false, false, -1,
					t.View(k1, k0, n-k1, k1-k0), b.View(k0, 0, k1-k0, b.Cols),
					1, b.View(k1, 0, n-k1, b.Cols))
			}
		}
	} else {
		for k1 := n; k1 > 0; k1 -= trsmBlock {
			k0 := max(k1-trsmBlock, 0)
			ctx.solveDiag(k0, k1)
			if k0 > 0 {
				Gemm(false, false, -1,
					t.View(0, k0, k0, k1-k0), b.View(k0, 0, k1-k0, b.Cols),
					1, b.View(0, 0, k0, b.Cols))
			}
		}
	}
	ctx.release()
}

// trsmCtx carries one Trsm call's operands so the parallel loop bodies can
// be pre-bound methods instead of per-block closures.
type trsmCtx struct {
	upper, unit bool
	t, b        mat.Dense // copies of the headers: the operands do not escape
	td          mat.Dense // current diagonal block view
	k0          int
	solveBody   func(jlo, jhi int)
}

var trsmCtxPool = sync.Pool{New: func() interface{} {
	ctx := &trsmCtx{}
	ctx.solveBody = ctx.runSolve
	return ctx
}}

func (ctx *trsmCtx) release() {
	ctx.t, ctx.b, ctx.td = mat.Dense{}, mat.Dense{}, mat.Dense{}
	trsmCtxPool.Put(ctx)
}

// runSolve solves the diagonal block for the right-hand sides [jlo, jhi),
// pivot by pivot across all the columns: once row k of X is final (divided
// by the diagonal unless unit), one rank-1 call subtracts X[k, j]·T[:, k]
// from the rows still open in every column j. Each column sees the
// divisions and the Axpy(-X[k, j], T[:, k], X[:, j]) updates a per-column
// substitution makes, in the same order, so the bits are that
// substitution's.
//
//qmc:hot
func (ctx *trsmCtx) runSolve(jlo, jhi int) {
	td := &ctx.td
	n, ldb, nc := td.Rows, ctx.b.Stride, jhi-jlo
	x := ctx.b.Data[ctx.k0+jlo*ldb:] // X[0, 0] of the block
	if ctx.upper {
		for k := n - 1; k >= 0; k-- {
			col := td.Col(k)
			ctx.divideRow(x[k:], ldb, nc, col[k])
			rank1(k, nc, col[:k], x[k:], ldb, x, ldb)
		}
		return
	}
	for k := 0; k < n; k++ {
		col := td.Col(k)
		ctx.divideRow(x[k:], ldb, nc, col[k])
		rank1(n-k-1, nc, col[k+1:n], x[k:], ldb, x[k+1:], ldb)
	}
}

// divideRow divides the nc entries row[j*ldb] by d unless the triangle has
// a unit diagonal.
func (ctx *trsmCtx) divideRow(row []float64, ldb, nc int, d float64) {
	if ctx.unit {
		return
	}
	for j := 0; j < nc; j++ {
		row[j*ldb] /= d
	}
}

// solveDiag solves T[k0:k1, k0:k1] * X = B[k0:k1, :] in place, with the
// right-hand-side columns on the caller below the GEMM pool cutoff (a 36x36
// solve is cheaper than waking a worker) and through the pool from there
// on. A column is computed by the same code either way.
func (ctx *trsmCtx) solveDiag(k0, k1 int) {
	ctx.k0 = k0
	ctx.td = *ctx.t.View(k0, k0, k1-k0, k1-k0)
	if ctx.b.Cols*(k1-k0)*(k1-k0) < gemmPoolMin {
		ctx.runSolve(0, ctx.b.Cols)
		return
	}
	parallel.For(ctx.b.Cols, 4, ctx.solveBody)
}
