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
//	        C[ir, jr] += ap[ir] * bp[jr]    // register-blocked micro-kernel,
//	                                        // finished in its write-back
//
// Both packing routines read the strided operand directly — transA/transB
// only swap which index runs contiguously — so transposed operands cost the
// same as plain ones and nothing is ever materialized. Packed micro-panels
// store A k-major in mr-tall stripes (element (r, k) at [k*mr+r]) and B
// k-major in nr-wide stripes (element (k, q) at [k*nr+q]); padding rows and
// columns are zero-filled so the micro-kernel always runs full tiles, and
// only its write-back respects the true edge of a partial tile.
//
// The write-back is where each C tile is finished, once per k slab, from the
// registers: the first slab of a beta = 0 product stores the tile without
// reading C, a partial tile loads and stores only its live rows and columns
// (masked rows, counted columns), and the last slab of a GemmPacked product
// multiplies in the row and then the column factors before the store. No
// pass over C precedes or follows the sweep, except beta's for beta not in
// {0, 1}. Per element the bits must be those of separate passes — zero C,
// accumulate a partial tile into a zeroed spill tile and add it back, scale
// the rows then the columns — which writeback_test.go keeps as the
// reference: runMacro lists the rule.
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
//
// A constant operand can skip the per-call packing: a Packed holds every
// slab's panels of one matrix, packed once by the same runPackA/runPackB,
// and GemmPacked points ap/bp into them instead of refilling its buffers.
// GemmPacked and GemmScaled also take diagonal scalings, applied in the
// write-back of each tile's last k slab.

import (
	"fmt"
	"sync"

	"questgo/internal/mat"
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

// gemmPoolMin is the smallest m*n*k whose loops (beta pass, packing,
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

// Write-back modes of a micro-kernel call (runMacro): bits of mode.
const (
	wbZero = 1 << iota // first k slab of a beta = 0 product: C is not read
	wbEdge             // partial tile: only iw x jw of C is live
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

	ap, bp     []float64 // the current slab's panels: the buffers below, or a Packed's
	abuf, bbuf []float64 // this context's packing buffers

	// packedA/packedB hold every slab's panels of a pre-packed operand (nil:
	// pack per call); r and s are the row and column scalings (nil: none),
	// which runMacro hands to the write-back of the last k slab.
	packedA, packedB []float64
	r, s             []float64
	lastK            bool // the current k slab is the last

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
// micro-panel chunks, each worker streaming the whole packed A slab. A
// pre-packed operand's slab is a window into its panels (see Packed).
func (ctx *gemmCtx) runPacked() {
	mr, nr := kernMR, kernNR
	for jc := 0; jc < ctx.n; jc += gemmNC {
		ctx.jc = jc
		ctx.nb = min(gemmNC, ctx.n-jc)
		npan := (ctx.nb + nr - 1) / nr
		for pc := 0; pc < ctx.k; pc += gemmKC {
			ctx.pc = pc
			ctx.kc = min(gemmKC, ctx.k-pc)
			ctx.lastK = pc+ctx.kc == ctx.k
			if ctx.packedB != nil {
				ctx.bp = ctx.packedB[pc*((ctx.n+nr-1)/nr)*nr+jc*ctx.kc:]
			} else {
				ctx.bbuf = growBuf(ctx.bbuf, npan*nr*ctx.kc)
				ctx.bp = ctx.bbuf
				ctx.loop(npan, 8, ctx.packBBody)
			}
			for ic := 0; ic < ctx.m; ic += gemmMC {
				ctx.ic = ic
				ctx.mb = min(gemmMC, ctx.m-ic)
				if ctx.packedA != nil {
					ctx.ap = ctx.packedA[pc*((ctx.m+mr-1)/mr)*mr+ic*ctx.kc:]
				} else {
					mpan := (ctx.mb + mr - 1) / mr
					ctx.abuf = growBuf(ctx.abuf, mpan*mr*ctx.kc)
					ctx.ap = ctx.abuf
					ctx.runPackA()
				}
				ctx.loop(npan, 2, ctx.macroBody)
			}
		}
	}
}

// Packed is a constant Gemm operand packed once: every k slab's
// micro-panels of the matrix, laid out slab after slab, each slab's panels
// in the order runPackA (the A side) or runPackB (the B side) writes them
// with the row (column) slab at 0 spanning the whole matrix. gemmMC and
// gemmNC are multiples of the tile, so the panels of the row slab at ic are
// the ones from ic/mr on, and a slab's packed operand is a window into them
// holding the bits a per-call pack would write. The panels depend on the
// tile (mr for A, nr for B), which a Packed records: GemmPacked packs per
// call from the source when the running kernel's tile differs. The source
// must not change while the handle is in use; a Packed is read-only and
// may be shared by concurrent products.
type Packed struct {
	src    *mat.Dense
	sideA  bool
	mr, nr int
	data   []float64
}

// PackA packs a as the A operand of the products GemmPacked(p, X, ...) =
// a·X.
func PackA(a *mat.Dense) *Packed { return pack(a, true) }

// PackB packs b as the B operand of the products GemmPacked(p, X, ...) =
// X·b.
func PackB(b *mat.Dense) *Packed { return pack(b, false) }

func pack(src *mat.Dense, sideA bool) *Packed {
	p := &Packed{src: src, sideA: sideA, mr: kernMR, nr: kernNR}
	ctx := &gemmCtx{aData: src.Data, as: src.Stride, bData: src.Data, bs: src.Stride, alpha: 1}
	if sideA {
		mpan := (src.Rows + p.mr - 1) / p.mr
		p.data = growBuf(nil, mpan*p.mr*src.Cols)
		ctx.mb = src.Rows
		for pc := 0; pc < src.Cols; pc += gemmKC {
			ctx.pc, ctx.kc = pc, min(gemmKC, src.Cols-pc)
			ctx.ap = p.data[pc*mpan*p.mr:]
			ctx.runPackA()
		}
	} else {
		npan := (src.Cols + p.nr - 1) / p.nr
		p.data = growBuf(nil, npan*p.nr*src.Rows)
		ctx.nb = src.Cols
		for pc := 0; pc < src.Rows; pc += gemmKC {
			ctx.pc, ctx.kc = pc, min(gemmKC, src.Rows-pc)
			ctx.bp = p.data[pc*npan*p.nr:]
			ctx.runPackB(0, npan)
		}
	}
	return p
}

// panels returns the packed panels if they were packed for the running
// kernel's tile, nil (pack per call) otherwise.
func (p *Packed) panels() []float64 {
	if p.mr != kernMR || p.nr != kernNR {
		return nil
	}
	return p.data
}

// GemmPacked computes C = diag(r)·(A·B)·diag(s) with A the packed operand
// and B = x when p was packed by PackA, A = x and B the packed operand when
// by PackB. r and s may be nil (no scaling). The product's bits are those
// of GemmScaled(false, false, A, B, r, s, C): the packed panels are what
// Gemm packs. It charges obs and check.Finite as Gemm does. C must not
// alias A, B, r or s.
//
//qmc:hot
func GemmPacked(p *Packed, x *mat.Dense, r, s []float64, c *mat.Dense) {
	if p.sideA {
		gemm(false, false, 1, p.src, x, 0, c, p.panels(), nil, r, s)
	} else {
		gemm(false, false, 1, x, p.src, 0, c, nil, p.panels(), r, s)
	}
}

func checkScaling(name string, d []float64, want int) {
	if d != nil && len(d) != want {
		panic(fmt.Sprintf("blas: GemmPacked/GemmScaled %s scaling has length %d, want %d", name, len(d), want))
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
// the current slab. Each micro-kernel call finishes its tile in the
// write-back, per element from acc, the FMA chain over this slab's k, by
// two rules that hold for full and partial tiles alike (a partial one
// stores only its iw x jw corner):
//
//	C read                  C + acc
//	first slab, beta = 0    acc + 0           (C is not read)
//	last slab, scaled       then (. * r[i]) * s[j]
//
// the bits of a zero pass added into and a row-then-column scaling pass;
// so the tile width never shows in C, the signed zero of an underflowed sum
// included. microKernel is called directly, not through a func value, so
// the loop allocates nothing.
func (ctx *gemmCtx) runMacro(plo, phi int) {
	mr, nr, kc := kernMR, kernNR, ctx.kc
	mpan := (ctx.mb + mr - 1) / mr
	first := 0
	if ctx.pc == 0 && ctx.beta == 0 {
		first = wbZero
	}
	for p := plo; p < phi; p++ {
		bpanel := ctx.bp[p*nr*kc : (p+1)*nr*kc]
		j0 := ctx.jc + p*nr
		jw := min(nr, ctx.jc+ctx.nb-j0)
		var s []float64
		if ctx.lastK && ctx.s != nil {
			s = ctx.s[j0 : j0+jw]
		}
		for ir := 0; ir < mpan; ir++ {
			apanel := ctx.ap[ir*mr*kc : (ir+1)*mr*kc]
			i0 := ctx.ic + ir*mr
			iw := min(mr, ctx.ic+ctx.mb-i0)
			mode := first
			if iw < mr || jw < nr {
				mode |= wbEdge
			}
			var r []float64
			if ctx.lastK && ctx.r != nil {
				r = ctx.r[i0 : i0+iw]
			}
			microKernel(kc, apanel, bpanel, ctx.cData[i0+j0*ctx.cs:], ctx.cs, mode, iw, jw, r, s)
		}
	}
}

// microKernel4x4 is the portable register-blocked kernel: the 4x4 tile of
// sum_k a[k*4+r] * b[k*4+q], all 16 accumulators in locals, fully unrolled
// over the tile, written back into C by mode as runMacro describes. A full
// unscaled tile adds straight from the locals; every other write-back goes
// through writeBack.
func microKernel4x4(kc int, a, b, c []float64, ldc, mode, iw, jw int, r, s []float64) {
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
	if mode != 0 || r != nil || s != nil {
		acc := [16]float64{
			c00, c10, c20, c30,
			c01, c11, c21, c31,
			c02, c12, c22, c32,
			c03, c13, c23, c33,
		}
		writeBack(&acc, c, ldc, mode, iw, jw, r, s)
		return
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

// writeBack stores the iw x jw corner of a 4x4 tile of accumulators
// (column-major) into C by mode, then the scalings, as runMacro describes.
func writeBack(acc *[16]float64, c []float64, ldc, mode, iw, jw int, r, s []float64) {
	for q := 0; q < jw; q++ {
		col := c[q*ldc : q*ldc+iw]
		for i := range col {
			v := acc[q*4+i]
			if mode&wbZero != 0 {
				v += 0
			} else {
				v += col[i]
			}
			if r != nil {
				v *= r[i]
			}
			if s != nil {
				v *= s[q]
			}
			col[i] = v
		}
	}
}
