package blas

import (
	"fmt"

	"questgo/internal/check"
	"questgo/internal/mat"
	"questgo/internal/obs"
)

// Gemm computes C = alpha*op(A)*op(B) + beta*C, the workhorse of the
// Green's function evaluation (matrix clustering, wrapping, and the trailing
// updates of the QR factorizations all reduce to it).
//
// The (transA, transB) flags select op as identity or transposition.
// Transposition is absorbed into the packing step of the blocked kernel
// (see gemm_packed.go), so no operand is ever materialized: both layouts
// read the strided source directly while writing the contiguous packed
// panels. C must not alias A or B.
//
//qmc:hot
func Gemm(transA, transB bool, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense) {
	am, ak := a.Rows, a.Cols
	if transA {
		am, ak = ak, am
	}
	bk, bn := b.Rows, b.Cols
	if transB {
		bk, bn = bn, bk
	}
	if am != c.Rows || bn != c.Cols || ak != bk {
		panic(fmt.Sprintf("blas: Gemm dimension mismatch: op(A) is %dx%d, op(B) is %dx%d, C is %dx%d", am, ak, bk, bn, c.Rows, c.Cols))
	}
	m, n, k := am, bn, ak
	if m == 0 || n == 0 {
		return
	}
	obs.AddGemm(m, n, k)

	ctx := gemmCtxPool.Get().(*gemmCtx)
	ctx.aData, ctx.as, ctx.transA = a.Data, a.Stride, transA
	ctx.bData, ctx.bs, ctx.transB = b.Data, b.Stride, transB
	ctx.cData, ctx.cs = c.Data, c.Stride
	ctx.alpha, ctx.beta = alpha, beta
	ctx.m, ctx.n, ctx.k = m, n, k

	// The kernels accumulate into C, so fold beta in with one pass first.
	// beta == 0 zeroes without reading C (NaN/Inf in uninitialized C must
	// not leak into the result, matching reference BLAS).
	if beta != 1 {
		ctx.loop(n, 8, ctx.scaleBody)
	}
	if alpha != 0 && k != 0 {
		ctx.runPacked()
	}
	ctx.aData, ctx.bData, ctx.cData = nil, nil, nil
	gemmCtxPool.Put(ctx)
	check.Finite("blas.Gemm", c)
}

// GemmTN computes C = alpha*A^T*B + beta*C. It is a named entry for the
// common UDT/block-reflector pattern where one operand is reused transposed
// (W = V^T C, N = Q_a^T Q_b); the transpose is handled during packing, so
// this costs exactly the same as the NN case.
//
//qmc:hot
func GemmTN(alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense) {
	Gemm(true, false, alpha, a, b, beta, c)
}

// runScale folds beta into columns [jlo, jhi) of C.
func (ctx *gemmCtx) runScale(jlo, jhi int) {
	for j := jlo; j < jhi; j++ {
		col := ctx.cData[j*ctx.cs : j*ctx.cs+ctx.m]
		if ctx.beta == 0 {
			for i := range col {
				col[i] = 0
			}
		} else {
			for i := range col {
				col[i] *= ctx.beta
			}
		}
	}
}

// GemmFlops returns the nominal flop count 2*m*n*k of a Gemm call with the
// given result shape and inner dimension, used by the benchmark harness to
// report GFlops rates comparable to the paper's figures.
func GemmFlops(m, n, k int) float64 { return 2 * float64(m) * float64(n) * float64(k) }
