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

// Trsm solves op(T) * X = alpha * B in place (B is overwritten by X) for a
// triangular T. Only the "left side" variants needed by the LU solver and
// the blocked factorizations are implemented:
//
//	upper=false, unit=true  : unit lower triangular (LU forward substitution)
//	upper=true,  unit=false : upper triangular (LU back substitution)
//
// trans selects op(T) = T or T^T. The solve is blocked: each trsmBlock-sized
// diagonal block is solved unblocked (right-hand sides in parallel; see
// runSolve), then the remaining rows are updated with one Gemm rank update,
// so the bulk of the flops run through the packed kernel.
func Trsm(upper, trans, unit bool, alpha float64, t, b *mat.Dense) {
	n := t.Rows
	if t.Cols != n || b.Rows != n {
		panic(fmt.Sprintf("blas: Trsm dimension mismatch: T is %dx%d, B is %dx%d", t.Rows, t.Cols, b.Rows, b.Cols))
	}
	if b.Cols == 0 || n == 0 {
		return
	}
	// Like the GEMM path, the parallel bodies are pre-bound methods on a
	// pooled context so no closure is allocated per call or per block.
	ctx := trsmCtxPool.Get().(*trsmCtx)
	ctx.upper, ctx.trans, ctx.unit, ctx.alpha = upper, trans, unit, alpha
	ctx.t, ctx.b = *t, *b
	if alpha != 1 {
		ctx.forCols(n, 8, ctx.scaleBody)
	}
	if n <= trsmBlock {
		ctx.solveDiag(0, n)
		ctx.release()
		return
	}
	// Forward sweeps eliminate solved blocks from the rows below; backward
	// sweeps from the rows above. Transposed cases feed Gemm the mirrored
	// off-diagonal block with transA=true, which the packed kernel absorbs
	// during packing.
	switch {
	case !trans && !upper:
		for k0 := 0; k0 < n; k0 += trsmBlock {
			k1 := min(k0+trsmBlock, n)
			ctx.solveDiag(k0, k1)
			if k1 < n {
				Gemm(false, false, -1,
					t.View(k1, k0, n-k1, k1-k0), b.View(k0, 0, k1-k0, b.Cols),
					1, b.View(k1, 0, n-k1, b.Cols))
			}
		}
	case !trans && upper:
		for k1 := n; k1 > 0; k1 -= trsmBlock {
			k0 := max(k1-trsmBlock, 0)
			ctx.solveDiag(k0, k1)
			if k0 > 0 {
				Gemm(false, false, -1,
					t.View(0, k0, k0, k1-k0), b.View(k0, 0, k1-k0, b.Cols),
					1, b.View(0, 0, k0, b.Cols))
			}
		}
	case trans && !upper:
		// T^T is upper triangular: backward sweep, block column of T below
		// the diagonal becomes the block row of T^T to its right.
		for k1 := n; k1 > 0; k1 -= trsmBlock {
			k0 := max(k1-trsmBlock, 0)
			ctx.solveDiag(k0, k1)
			if k0 > 0 {
				Gemm(true, false, -1,
					t.View(k0, 0, k1-k0, k0), b.View(k0, 0, k1-k0, b.Cols),
					1, b.View(0, 0, k0, b.Cols))
			}
		}
	default: // trans && upper
		// T^T is lower triangular: forward sweep.
		for k0 := 0; k0 < n; k0 += trsmBlock {
			k1 := min(k0+trsmBlock, n)
			ctx.solveDiag(k0, k1)
			if k1 < n {
				Gemm(true, false, -1,
					t.View(k0, k1, k1-k0, n-k1), b.View(k0, 0, k1-k0, b.Cols),
					1, b.View(k1, 0, n-k1, b.Cols))
			}
		}
	}
	ctx.release()
}

// trsmCtx carries one Trsm call's operands so the parallel loop bodies can
// be pre-bound methods instead of per-block closures.
type trsmCtx struct {
	upper, trans, unit bool
	alpha              float64
	t, b               mat.Dense // copies of the headers: the operands do not escape
	td                 mat.Dense // current diagonal block view
	k0, k1             int
	scaleBody          func(jlo, jhi int)
	solveBody          func(jlo, jhi int)
}

var trsmCtxPool = sync.Pool{New: func() interface{} {
	ctx := &trsmCtx{}
	ctx.scaleBody = ctx.runScale
	ctx.solveBody = ctx.runSolve
	return ctx
}}

func (ctx *trsmCtx) release() {
	ctx.t, ctx.b, ctx.td = mat.Dense{}, mat.Dense{}, mat.Dense{}
	trsmCtxPool.Put(ctx)
}

//qmc:hot
func (ctx *trsmCtx) runScale(jlo, jhi int) {
	for j := jlo; j < jhi; j++ {
		Scal(ctx.alpha, ctx.b.Col(j))
	}
}

// runSolve solves the diagonal block for the right-hand sides [jlo, jhi).
// The transposed cases run trsvT per column. The others eliminate pivot by
// pivot across all the columns: once row k of X is final (divided by the
// diagonal unless unit), one rank-1 call subtracts X[k, j]·T[:, k] from the
// rows still open in every column j. Each column sees the divisions and the
// Axpy(-X[k, j], T[:, k], X[:, j]) updates a per-column substitution makes,
// in the same order, so the bits are that substitution's.
//
//qmc:hot
func (ctx *trsmCtx) runSolve(jlo, jhi int) {
	td := &ctx.td
	if ctx.trans {
		for j := jlo; j < jhi; j++ {
			trsvT(ctx.upper, ctx.unit, td, ctx.b.Col(j)[ctx.k0:ctx.k1])
		}
		return
	}
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

// solveDiag solves op(T[k0:k1, k0:k1]) * X = B[k0:k1, :] in place, with the
// right-hand-side columns in parallel.
func (ctx *trsmCtx) solveDiag(k0, k1 int) {
	ctx.k0, ctx.k1 = k0, k1
	ctx.td = *ctx.t.View(k0, k0, k1-k0, k1-k0)
	ctx.forCols((k1-k0)*(k1-k0), 4, ctx.solveBody)
}

// forCols runs body over the right-hand-side columns, each costing about
// perCol operations: on the caller below the GEMM pool cutoff (a 36x36
// solve is cheaper than waking a worker), through the pool from there on.
// A column is computed by the same code either way.
func (ctx *trsmCtx) forCols(perCol, grain int, body func(jlo, jhi int)) {
	if ctx.b.Cols*perCol < gemmPoolMin {
		body(0, ctx.b.Cols)
		return
	}
	parallel.For(ctx.b.Cols, grain, body)
}

// trsvT solves T^T x = x in place for one right-hand side, with dot
// products along the part of each column of T beside the diagonal.
func trsvT(upper, unit bool, t *mat.Dense, x []float64) {
	n := t.Rows
	x = x[:n]
	if !upper {
		// T^T is upper triangular.
		for k := n - 1; k >= 0; k-- {
			col := t.Col(k)
			x[k] -= dot(col[k+1:], x[k+1:])
			if !unit {
				x[k] /= col[k]
			}
		}
		return
	}
	// T^T is lower triangular.
	for k := 0; k < n; k++ {
		col := t.Col(k)
		x[k] -= dot(col[:k], x[:k])
		if !unit {
			x[k] /= col[k]
		}
	}
}
