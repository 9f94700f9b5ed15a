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
	gemm(transA, transB, alpha, a, b, beta, c, nil, nil, nil, nil)
}

// gemm is Gemm plus GemmPacked's and GemmScaled's extras: packedA/packedB,
// when non-nil, are that operand's panels for every slab (see Packed), and
// r/s the row and column scalings applied after the product.
func gemm(transA, transB bool, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense, packedA, packedB, r, s []float64) {
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
	checkScaling("row", r, m)
	checkScaling("column", s, n)
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
	ctx.packedA, ctx.packedB, ctx.r, ctx.s = packedA, packedB, r, s

	switch {
	case alpha == 0 || k == 0:
		// No k slab to write back: C = beta*C, then the scalings. beta = 0
		// zeroes without reading C (NaN/Inf in uninitialized C must not
		// leak into the result, matching reference BLAS).
		switch beta {
		case 0:
			c.Zero()
		case 1:
		default:
			c.Scale(beta)
		}
		if r != nil {
			c.ScaleRows(r)
		}
		if s != nil {
			c.ScaleCols(s)
		}
	default:
		// The write-back accumulates into C, stores beta = 0's first slab
		// without reading C and scales in the last slab (runMacro); any
		// other beta is folded in with one pass first.
		if beta != 0 && beta != 1 {
			ctx.loop(n, 8, ctx.scaleBody)
		}
		ctx.runPacked()
	}
	ctx.aData, ctx.bData, ctx.cData = nil, nil, nil
	ctx.ap, ctx.bp, ctx.packedA, ctx.packedB, ctx.r, ctx.s = nil, nil, nil, nil, nil, nil
	gemmCtxPool.Put(ctx)
	check.Finite("blas.Gemm", c)
}

// GemmScaled computes C = diag(r)*op(A)*op(B)*diag(s), bit for bit
// Gemm(transA, transB, 1, A, B, 0, C) followed by C.ScaleRows(r) and
// C.ScaleCols(s): each element of the product times its row factor,
// rounded, then times its column factor, in the write-back of the tile's
// last k slab instead of two more passes over C. r and s may be nil (no
// scaling). C must not alias A, B, r or s.
//
//qmc:hot
func GemmScaled(transA, transB bool, a, b *mat.Dense, r, s []float64, c *mat.Dense) {
	gemm(transA, transB, 1, a, b, 0, c, nil, nil, r, s)
}

// GemmBlockDiag computes C = diag(r)·X·(I ⊗ B)·diag(s), B the k×n operand
// packed by PackB: the strided batch C_b = X_b·B over the column blocks
// X_b = X[:, bk:(b+1)k] and C_b = C[:, bn:(b+1)n], with the scalings in the
// write-back as in GemmPacked. It is the small-GEMM batch of a Kronecker
// factor applied along a tensor index that no single GEMM view reaches.
// Each block's bits are those of GemmPacked(p, X_b, r, s[bn:(b+1)n], C_b);
// one context runs every block against B's panels, and the batch charges
// obs as one call of its total flops. r and s may be nil (no scaling). C
// must not alias X, r or s.
//
//qmc:hot
func GemmBlockDiag(p *Packed, x *mat.Dense, r, s []float64, c *mat.Dense) {
	k, n := p.src.Rows, p.src.Cols
	if p.sideA || k == 0 || x.Cols%k != 0 || x.Rows != c.Rows || c.Cols != x.Cols/k*n {
		panic(fmt.Sprintf("blas: GemmBlockDiag needs a PackB operand and X m x bk, C m x bn: B is %dx%d, X is %dx%d, C is %dx%d",
			k, n, x.Rows, x.Cols, c.Rows, c.Cols))
	}
	blocks, m := x.Cols/k, x.Rows
	checkScaling("row", r, m)
	checkScaling("column", s, c.Cols)
	if m == 0 || n == 0 || blocks == 0 {
		return
	}
	obs.AddGemm(m, blocks*n, k)
	ctx := gemmCtxPool.Get().(*gemmCtx)
	ctx.as, ctx.bData, ctx.bs, ctx.cs = x.Stride, p.src.Data, p.src.Stride, c.Stride
	ctx.transA, ctx.transB = false, false
	ctx.alpha, ctx.beta = 1, 0
	ctx.m, ctx.n, ctx.k = m, n, k
	ctx.packedB, ctx.r = p.panels(), r
	for b := 0; b < blocks; b++ {
		ctx.aData, ctx.cData = x.Data[b*k*x.Stride:], c.Data[b*n*c.Stride:]
		if s != nil {
			ctx.s = s[b*n : (b+1)*n]
		}
		ctx.runPacked()
	}
	ctx.aData, ctx.bData, ctx.cData = nil, nil, nil
	ctx.ap, ctx.bp, ctx.packedB, ctx.r, ctx.s = nil, nil, nil, nil, nil
	gemmCtxPool.Put(ctx)
	check.Finite("blas.GemmBlockDiag", c)
}

// runScale folds beta (not 0 or 1) into columns [jlo, jhi) of C.
func (ctx *gemmCtx) runScale(jlo, jhi int) {
	for j := jlo; j < jhi; j++ {
		col := ctx.cData[j*ctx.cs : j*ctx.cs+ctx.m]
		for i := range col {
			col[i] *= ctx.beta
		}
	}
}

// GemmFlops returns the nominal flop count 2*m*n*k of a Gemm call with the
// given result shape and inner dimension, used by the benchmark harness to
// report GFlops rates comparable to the paper's figures.
func GemmFlops(m, n, k int) float64 { return 2 * float64(m) * float64(n) * float64(k) }
