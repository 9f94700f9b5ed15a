package blas

// GotoBLAS-style packed GEMM.
//
// The product is tiled over three cache levels:
//
//	for jc over N in NC columns:            // C/B column slab
//	  for pc over K in KC:                  // shared inner dimension
//	    pack op(B)[pc:pc+KC, jc:jc+NC]     -> bp (L3-resident, nr-wide micro-panels)
//	    for ic over M in MC rows:
//	      pack alpha*op(A)[ic:ic+MC, pc:]  -> ap (L2-resident, mr-tall micro-panels)
//	      for jr, ir over micro-panels:     // parallel over jr chunks
//	        C[ir, jr] += ap[ir] * bp[jr]    // register-blocked micro-kernel
//
// Both packing routines read the strided operand directly — transA/transB
// only swap which index runs contiguously — so transposed operands cost the
// same as plain ones and nothing is ever materialized. Packed micro-panels
// store A k-major in mr-tall stripes (element (r, k) at [k*mr+r]) and B
// k-major in nr-wide stripes (element (k, q) at [k*nr+q]); padding rows and
// columns are zero-filled so the micro-kernel always runs full tiles; a
// partial tile runs it into an mr x nr spill tile and only the write-back
// respects the true edge.
//
// Every shape takes this one path. The micro-kernel is selected at startup
// from what the CPU offers (gemm_amd64.go): an AVX-512 8x8 assembly kernel,
// an AVX2+FMA 8x4 one, otherwise the portable 4x4 Go kernel below. The two
// assembly kernels share mr = 8, the packed A and the per-element FMA chain
// over k, and so produce the same bits. The only shape-dependent
// decision is whether the loops are offered to the parallel pool at all
// (gemmPoolMin); the pool only ever splits a loop over whole micro-panels,
// so which kernel and which k-blocking compute a given C tile — and hence
// every bit of the result — is independent of GOMAXPROCS and pool load.
// Contexts (including the packing buffers and the parallel-loop closures)
// are pooled so a steady-state Gemm call performs zero heap allocations.

import (
	"sync"

	"questgo/internal/parallel"
)

// Cache blocking parameters. kc*nr*8 (one B micro-panel) stays L1-resident
// through a macro row sweep; mc*kc*8 = 256 KiB (one packed A slab) targets
// L2; kc*NC*8 = 2 MiB (one packed B slab) targets L3.
const (
	gemmKC = 256
	gemmMC = 128
	gemmNC = 1024
)

// gemmPoolMin is the smallest m*n*k whose loops (beta pre-pass, packing,
// macro sweep) are offered to the parallel pool. Below it a hand-off plus
// the wake-up costs more than the product itself (64^3 is ~20 us of kernel
// time), so the calling goroutine runs every loop inline.
const gemmPoolMin = 64 * 64 * 64

// Micro-tile dimensions, set at init by the per-arch kernel selection
// (microKernel, in gemm_amd64.go / gemm_generic.go, dispatches on them).
// kernMR*kernNR accumulators live in registers across the whole KC loop.
var kernMR, kernNR = 4, 4

// Kernel names the micro-kernel this process runs and gives its register
// tile, so a measurement can say what produced it.
func Kernel() (name string, mr, nr int) {
	switch {
	case kernNR == 8:
		name = "avx512-8x8"
	case kernMR == 8:
		name = "avx2-8x4"
	default:
		name = "go-4x4"
	}
	return name, kernMR, kernNR
}

// maxMR and maxNR bound the tile across all kernel choices; the spill tile
// for partial tiles is sized statically with them.
const (
	maxMR = 8
	maxNR = 8
)

// gemmCtx carries one Gemm call's state. The closures are created once per
// context (in the pool's New) so per-call dispatch into the worker pool
// allocates nothing.
type gemmCtx struct {
	aData, bData, cData []float64
	as, bs, cs          int
	transA, transB      bool
	alpha, beta         float64
	m, n, k             int

	jc, nb int // current column slab [jc, jc+nb)
	pc, kc int // current k slab [pc, pc+kc)
	ic, mb int // current row slab [ic, ic+mb)

	ap, bp []float64

	scaleBody func(lo, hi int)
	packBBody func(lo, hi int)
	macroBody func(lo, hi int)
}

var gemmCtxPool = sync.Pool{New: func() interface{} {
	ctx := new(gemmCtx)
	ctx.scaleBody = ctx.runScale
	ctx.packBBody = ctx.runPackB
	ctx.macroBody = ctx.runMacro
	return ctx
}}

func growBuf(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	//qmc:allow hotalloc -- amortized growth: reused via the gemmCtx pool, steady state allocates nothing
	return make([]float64, n)
}

// loop runs body over [0, n): through the pool for a product large enough
// to repay the hand-off, inline otherwise.
func (ctx *gemmCtx) loop(n, grain int, body func(lo, hi int)) {
	if ctx.m*ctx.n*ctx.k >= gemmPoolMin {
		parallel.For(n, grain, body)
	} else {
		body(0, n)
	}
}

// runPacked drives the blocked loops. Packing B is parallel over its
// micro-panels; packing A is serial (it is O(mc*kc), negligible against the
// O(mc*kc*nb) macro sweep it feeds); the macro sweep is parallel over B
// micro-panel chunks, each worker streaming the whole packed A slab.
func (ctx *gemmCtx) runPacked() {
	mr, nr := kernMR, kernNR
	for jc := 0; jc < ctx.n; jc += gemmNC {
		ctx.jc = jc
		ctx.nb = min(gemmNC, ctx.n-jc)
		npan := (ctx.nb + nr - 1) / nr
		for pc := 0; pc < ctx.k; pc += gemmKC {
			ctx.pc = pc
			ctx.kc = min(gemmKC, ctx.k-pc)
			ctx.bp = growBuf(ctx.bp, npan*nr*ctx.kc)
			ctx.loop(npan, 8, ctx.packBBody)
			for ic := 0; ic < ctx.m; ic += gemmMC {
				ctx.ic = ic
				ctx.mb = min(gemmMC, ctx.m-ic)
				mpan := (ctx.mb + mr - 1) / mr
				ctx.ap = growBuf(ctx.ap, mpan*mr*ctx.kc)
				ctx.runPackA()
				ctx.loop(npan, 2, ctx.macroBody)
			}
		}
	}
}

// runPackB packs op(B) micro-panels [plo, phi) of the current (jc, pc) slab
// into bp. Panel p covers columns jc+p*nr .. jc+p*nr+nr with element
// (k, q) at bp[p*nr*kc + k*nr + q]; columns past the matrix edge are zero.
func (ctx *gemmCtx) runPackB(plo, phi int) {
	nr, kc := kernNR, ctx.kc
	for p := plo; p < phi; p++ {
		dst := ctx.bp[p*nr*kc : (p+1)*nr*kc]
		j0 := ctx.jc + p*nr
		jw := min(nr, ctx.jc+ctx.nb-j0)
		if jw < nr {
			for i := range dst {
				dst[i] = 0
			}
		}
		if !ctx.transB {
			// op(B)(pc+k, j) = B(pc+k, j): source columns are contiguous.
			packCols(dst, ctx.bData[ctx.pc+j0*ctx.bs:], ctx.bs, kc, nr, jw, 1)
		} else {
			// op(B)(pc+k, j) = B(j, pc+k): source rows are contiguous.
			packRows(dst, ctx.bData[j0+ctx.pc*ctx.bs:], ctx.bs, kc, nr, jw, 1)
		}
	}
}

// runPackA packs alpha*op(A) for the current (ic, pc) slab into ap. Panel
// ir covers rows ic+ir*mr .. +mr with element (r, k) at
// ap[ir*mr*kc + k*mr + r]; rows past the matrix edge are zero.
func (ctx *gemmCtx) runPackA() {
	mr, kc := kernMR, ctx.kc
	mpan := (ctx.mb + mr - 1) / mr
	for ir := 0; ir < mpan; ir++ {
		dst := ctx.ap[ir*mr*kc : (ir+1)*mr*kc]
		i0 := ctx.ic + ir*mr
		iw := min(mr, ctx.ic+ctx.mb-i0)
		if iw < mr {
			for i := range dst {
				dst[i] = 0
			}
		}
		if !ctx.transA {
			// op(A)(i, pc+k) = A(i, pc+k): source columns are contiguous.
			packRows(dst, ctx.aData[i0+ctx.pc*ctx.as:], ctx.as, kc, mr, iw, ctx.alpha)
		} else {
			// op(A)(i, pc+k) = A(pc+k, i): source rows run along k.
			packCols(dst, ctx.aData[ctx.pc+i0*ctx.as:], ctx.as, kc, mr, iw, ctx.alpha)
		}
	}
}

// packRowsGo is the portable packing loop for an operand whose micro-panel
// index runs contiguously in the source (A as stored, B transposed):
// dst[k*w+r] = alpha*src[k*ld+r] for k < kc, r < iw <= w. Entries r >= iw
// are left alone. B passes alpha = 1, which changes no bit. packRows
// (gemm_amd64.go / gemm_generic.go) is what the packing routines call; on
// AVX2 hardware it hands full panels (iw == w) to a vector kernel that
// stores the same bits.
func packRowsGo(dst, src []float64, ld, kc, w, iw int, alpha float64) {
	for kk := 0; kk < kc; kk++ {
		s := src[kk*ld:]
		d := dst[kk*w : kk*w+iw]
		for r := range d {
			d[r] = alpha * s[r]
		}
	}
}

// packColsGo is the portable packing loop for an operand whose k index
// runs contiguously in the source (B as stored, A transposed):
// dst[k*w+q] = alpha*src[q*ld+k] for k < kc, q < jw <= w.
func packColsGo(dst, src []float64, ld, kc, w, jw int, alpha float64) {
	for q := 0; q < jw; q++ {
		s := src[q*ld:]
		for kk := 0; kk < kc; kk++ {
			dst[kk*w+q] = alpha * s[kk]
		}
	}
}

// runMacro sweeps B micro-panels [plo, phi) against every packed A panel of
// the current slab. Full tiles accumulate straight into C; a partial tile
// (bottom rows / last columns) runs the same kernel over the zero-padded
// panels into the spill tile and adds back its iw x jw corner. microKernel
// is called directly, not through a func value, so spill stays on the stack.
func (ctx *gemmCtx) runMacro(plo, phi int) {
	mr, nr, kc := kernMR, kernNR, ctx.kc
	var spill [maxMR * maxNR]float64
	mpan := (ctx.mb + mr - 1) / mr
	for p := plo; p < phi; p++ {
		bpanel := ctx.bp[p*nr*kc : (p+1)*nr*kc]
		j0 := ctx.jc + p*nr
		jw := min(nr, ctx.jc+ctx.nb-j0)
		for ir := 0; ir < mpan; ir++ {
			apanel := ctx.ap[ir*mr*kc : (ir+1)*mr*kc]
			i0 := ctx.ic + ir*mr
			iw := min(mr, ctx.ic+ctx.mb-i0)
			if iw == mr && jw == nr {
				microKernel(kc, apanel, bpanel, ctx.cData[i0+j0*ctx.cs:], ctx.cs)
				continue
			}
			spill = [maxMR * maxNR]float64{}
			microKernel(kc, apanel, bpanel, spill[:], mr)
			for q := 0; q < jw; q++ {
				col := ctx.cData[i0+(j0+q)*ctx.cs:][:iw]
				for r := range col {
					col[r] += spill[q*mr+r]
				}
			}
		}
	}
}

// microKernel4x4 is the portable register-blocked kernel:
// C[r + q*ldc] += sum_k a[k*4+r] * b[k*4+q] with all 16 accumulators in
// locals, fully unrolled over the tile.
func microKernel4x4(kc int, a, b, c []float64, ldc int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	for kk := 0; kk < kc; kk++ {
		aa := (*[4]float64)(a[kk*4:])
		bb := (*[4]float64)(b[kk*4:])
		a0, a1, a2, a3 := aa[0], aa[1], aa[2], aa[3]
		b0, b1, b2, b3 := bb[0], bb[1], bb[2], bb[3]
		c00 += a0 * b0
		c10 += a1 * b0
		c20 += a2 * b0
		c30 += a3 * b0
		c01 += a0 * b1
		c11 += a1 * b1
		c21 += a2 * b1
		c31 += a3 * b1
		c02 += a0 * b2
		c12 += a1 * b2
		c22 += a2 * b2
		c32 += a3 * b2
		c03 += a0 * b3
		c13 += a1 * b3
		c23 += a2 * b3
		c33 += a3 * b3
	}
	c[0] += c00
	c[1] += c10
	c[2] += c20
	c[3] += c30
	c[ldc+0] += c01
	c[ldc+1] += c11
	c[ldc+2] += c21
	c[ldc+3] += c31
	c[2*ldc+0] += c02
	c[2*ldc+1] += c12
	c[2*ldc+2] += c22
	c[2*ldc+3] += c32
	c[3*ldc+0] += c03
	c[3*ldc+1] += c13
	c[3*ldc+2] += c23
	c[3*ldc+3] += c33
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
