package blas

import (
	"fmt"
	"math"
	"testing"

	"questgo/internal/mat"
	"questgo/internal/rng"
)

// The micro-kernels finish each C tile in their write-back (runMacro). The
// reference below is the write-back they replaced, kept here to hold them
// to it bit for bit: beta folded into C by a pass first (beta = 0 zeroes
// without reading C), every tile accumulated by the kernel's plain add —
// a partial one into a spill tile that a Go loop adds back — and the row
// then column scalings applied by ScaleRows and ScaleCols once the product
// is in.

// gemmTwoPass is gemm (the scaled entry included) computed by the separate
// passes. The panels are packed by the same runPackA/runPackB and the tiles
// accumulated by the same kernel in its full-tile mode, so any bit it
// disagrees on was changed by the write-back.
func gemmTwoPass(ta, tb bool, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense, r, s []float64) {
	ctx := &gemmCtx{
		aData: a.Data, as: a.Stride, transA: ta,
		bData: b.Data, bs: b.Stride, transB: tb,
		cData: c.Data, cs: c.Stride,
		alpha: alpha,
		m:     c.Rows, n: c.Cols, k: a.Cols,
	}
	if ta {
		ctx.k = a.Rows
	}
	for j := 0; j < ctx.n; j++ {
		col := c.Col(j)
		for i := range col {
			switch beta {
			case 0:
				col[i] = 0
			case 1:
			default:
				col[i] *= beta
			}
		}
	}
	if alpha != 0 && ctx.k != 0 {
		mr, nr := kernMR, kernNR
		for jc := 0; jc < ctx.n; jc += gemmNC {
			ctx.jc, ctx.nb = jc, min(gemmNC, ctx.n-jc)
			npan := (ctx.nb + nr - 1) / nr
			for pc := 0; pc < ctx.k; pc += gemmKC {
				ctx.pc, ctx.kc = pc, min(gemmKC, ctx.k-pc)
				ctx.bp = make([]float64, npan*nr*ctx.kc)
				ctx.runPackB(0, npan)
				for ic := 0; ic < ctx.m; ic += gemmMC {
					ctx.ic, ctx.mb = ic, min(gemmMC, ctx.m-ic)
					ctx.ap = make([]float64, ((ctx.mb+mr-1)/mr)*mr*ctx.kc)
					ctx.runPackA()
					macroTwoPass(ctx)
				}
			}
		}
	}
	if r != nil {
		c.ScaleRows(r)
	}
	if s != nil {
		c.ScaleCols(s)
	}
}

// macroTwoPass is runMacro with the spill tile: full tiles accumulate
// straight into C, a partial one runs the kernel into an mr x nr tile of -0
// and adds back its iw x jw corner. -0 + acc is acc for every acc, -0
// included, so a partial tile adds C + acc as a full one does (a zeroed
// tile would add C + (acc + 0), which turns an underflowed -0 sum into +0).
func macroTwoPass(ctx *gemmCtx) {
	mr, nr, kc := kernMR, kernNR, ctx.kc
	mpan := (ctx.mb + mr - 1) / mr
	npan := (ctx.nb + nr - 1) / nr
	for p := 0; p < npan; p++ {
		bpanel := ctx.bp[p*nr*kc : (p+1)*nr*kc]
		j0 := ctx.jc + p*nr
		jw := min(nr, ctx.jc+ctx.nb-j0)
		for ir := 0; ir < mpan; ir++ {
			apanel := ctx.ap[ir*mr*kc : (ir+1)*mr*kc]
			i0 := ctx.ic + ir*mr
			iw := min(mr, ctx.ic+ctx.mb-i0)
			if iw == mr && jw == nr {
				microKernel(kc, apanel, bpanel, ctx.cData[i0+j0*ctx.cs:], ctx.cs, 0, mr, nr, nil, nil)
				continue
			}
			spill := make([]float64, mr*nr)
			for i := range spill {
				spill[i] = math.Copysign(0, -1)
			}
			microKernel(kc, apanel, bpanel, spill, mr, 0, mr, nr, nil, nil)
			for q := 0; q < jw; q++ {
				col := ctx.cData[i0+(j0+q)*ctx.cs:][:iw]
				for i := range col {
					col[i] += spill[q*mr+i]
				}
			}
		}
	}
}

// hostKernels lists the register tiles this build and CPU can run: the one
// init selected and every narrower one down to the portable 4x4.
func hostKernels() [][2]int {
	switch {
	case kernNR == 8:
		return [][2]int{{8, 8}, {8, 4}, {4, 4}}
	case kernMR == 8:
		return [][2]int{{8, 4}, {4, 4}}
	}
	return [][2]int{{4, 4}}
}

// underKernels runs f once under each kernel hostKernels lists, restoring
// the selected one afterwards.
func underKernels(f func(name string)) {
	mr, nr := kernMR, kernNR
	defer func() { kernMR, kernNR = mr, nr }()
	for _, tile := range hostKernels() {
		kernMR, kernNR = tile[0], tile[1]
		name, _, _ := Kernel()
		f(name)
	}
}

// tinyRow and tinyCol pick the rows of op(A) and the columns of op(B) that
// signedZeroOperands fills with tiny magnitudes: their crossings land in
// every lane of every tile shape some m, n of the grid runs.
func tinyRow(i int) bool { return i%5 == 1 }
func tinyCol(j int) bool { return j%3 == 0 }

// signedZeroOperands returns random graded operands in which the tinyRow
// rows of op(A) and the tinyCol columns of op(B) hold tiny magnitudes of
// opposite sign, so at each crossing every product underflows to -0 and the
// kernels' FMA chain ends at -0 (for alpha > 0): the sum on which C + acc
// and C + (acc + 0) differ, and so on which a write-back that let the tile
// width choose between them would show.
func signedZeroOperands(r *rng.Rand, m, n, k int, ta, tb bool) (a, b *mat.Dense) {
	ar, ac := m, k
	if ta {
		ar, ac = k, m
	}
	br, bc := k, n
	if tb {
		br, bc = n, k
	}
	a, b = randomDense(r, ar, ac), randomDense(r, br, bc)
	for kk := 0; kk < k; kk++ {
		for i := 0; i < m; i++ {
			if !tinyRow(i) {
				continue
			}
			if ta {
				a.Set(kk, i, -1e-200)
			} else {
				a.Set(i, kk, -1e-200)
			}
		}
		for j := 0; j < n; j++ {
			if !tinyCol(j) {
				continue
			}
			if tb {
				b.Set(j, kk, 1e-200)
			} else {
				b.Set(kk, j, 1e-200)
			}
		}
	}
	return a, b
}

// startingC returns C's entries before the product: NaN for beta = 0 (the
// product must not read it), otherwise graded values with -0 at the
// crossings of signedZeroOperands and at every eleventh entry.
func startingC(r *rng.Rand, m, n int, beta float64) *mat.Dense {
	c := randomDense(r, m, n)
	for j := 0; j < n; j++ {
		col := c.Col(j)
		for i := range col {
			switch {
			case beta == 0:
				col[i] = math.NaN()
			case tinyRow(i) && tinyCol(j) || (i+j*m)%11 == 0:
				col[i] = math.Copysign(0, -1)
			}
		}
	}
	return c
}

// writeBackSizes are the result extents the bitwise grid runs: every m, n
// up to 40 (each remainder of every tile, both sides of the first full
// tile), a full and a partial 64, and the N = 144 the large runs use.
var writeBackSizes = func() []int {
	var s []int
	for i := 1; i <= 40; i++ {
		s = append(s, i)
	}
	return append(s, 64, 65, 144)
}()

// TestWriteBackMatchesSeparatePasses: gemm with the tiles finished in the
// write-back against gemmTwoPass, bit for bit, under every kernel the host
// offers, for every m x n of writeBackSizes, each beta in {0, 1, -1, 0.3}
// (C pre-filled with NaN for 0, holding -0 otherwise), and — cycling over
// the shapes — every transposition, alpha in {1, -1, 2.5}, row and column
// factors absent or present (with -0 among them), and k from 1 to past
// gemmKC, so that a later k slab accumulates onto the first one's
// write-back.
func TestWriteBackMatchesSeparatePasses(t *testing.T) {
	alphas := []float64{1, -1, 2.5}
	ks := []int{1, 2, 3, 8, 13, 36}
	underKernels(func(kern string) {
		r := rng.New(61)
		cases := 0
		for _, m := range writeBackSizes {
			for _, n := range writeBackSizes {
				for bi, beta := range []float64{0, 1, -1, 0.3} {
					cases++
					ta, tb := cases%2 == 1, cases/2%2 == 1
					alpha := alphas[cases%3]
					k := ks[cases%len(ks)]
					if cases%17 == 0 && m*n <= 40*40 {
						k = gemmKC + 1 + cases%5
					}
					if m*n > 40*40 {
						k = ks[cases%3] // keep the large shapes cheap
					}
					var rs, ss []float64
					if (cases+bi)%4 >= 2 {
						rs = scaling(r, m, false)
					}
					if (cases+bi)%2 == 1 {
						ss = scaling(r, n, false)
					}
					a, b := signedZeroOperands(r, m, n, k, ta, tb)
					want := startingC(r, m, n, beta)
					got := want.Clone()
					gemm(ta, tb, alpha, a, b, beta, got, nil, nil, rs, ss)
					gemmTwoPass(ta, tb, alpha, a, b, beta, want, rs, ss)
					if !sameBits(got, want) {
						t.Fatalf("%s m=%d n=%d k=%d ta=%v tb=%v alpha=%v beta=%v rows=%v cols=%v: the write-back differs from the separate passes%s",
							kern, m, n, k, ta, tb, alpha, beta, rs != nil, ss != nil, firstDiff(got, want))
					}
				}
			}
		}
	})
}

// firstDiff names the first element whose bits differ, for a failure.
func firstDiff(got, want *mat.Dense) string {
	for j := 0; j < got.Cols; j++ {
		for i := 0; i < got.Rows; i++ {
			if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf(": C(%d,%d) = %v (%#x), want %v (%#x)", i, j, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	return ""
}

// TestWriteBackGuardBand: the C view sits inside a larger matrix whose
// border (the rows under the view in each of its columns, and the columns
// on either side) holds a sentinel; no masked row store, counted column or
// scaling may touch it, under any kernel, for any partial tile.
func TestWriteBackGuardBand(t *testing.T) {
	const g = 3
	underKernels(func(kern string) {
		r := rng.New(67)
		for _, sh := range []struct{ m, n, k int }{
			{1, 1, 1}, {3, 5, 2}, {7, 9, 4}, {9, 7, 3}, {13, 6, 5}, {15, 17, 8}, {36, 36, 36}, {65, 63, 300},
		} {
			for _, beta := range []float64{0, 1} {
				for _, scaled := range []bool{false, true} {
					big := mat.New(sh.m+2*g, sh.n+2*g)
					for i := range big.Data {
						big.Data[i] = sentinel
					}
					c := big.View(g, g, sh.m, sh.n)
					for j := 0; j < sh.n; j++ {
						copy(c.Col(j), randomDense(r, sh.m, 1).Data)
					}
					want := c.Clone()
					a, b := randomDense(r, sh.m, sh.k), randomDense(r, sh.k, sh.n)
					var rs, ss []float64
					if scaled {
						rs, ss = scaling(r, sh.m, false), scaling(r, sh.n, false)
					}
					gemm(false, false, 1.5, a, b, beta, c, nil, nil, rs, ss)
					gemmTwoPass(false, false, 1.5, a, b, beta, want, rs, ss)
					if !sameBits(c, want) {
						t.Fatalf("%s %dx%dx%d beta=%v scaled=%v: the view's product differs from the separate passes", kern, sh.m, sh.n, sh.k, beta, scaled)
					}
					for j := 0; j < big.Cols; j++ {
						for i := 0; i < big.Rows; i++ {
							inView := i >= g && i < g+sh.m && j >= g && j < g+sh.n
							if !inView && math.Float64bits(big.At(i, j)) != math.Float64bits(sentinel) {
								t.Fatalf("%s %dx%dx%d beta=%v scaled=%v: wrote %v at (%d,%d) outside the view", kern, sh.m, sh.n, sh.k, beta, scaled, big.At(i, j), i-g, j-g)
							}
						}
					}
				}
			}
		}
	})
}

// BenchmarkGemmWriteBack times one NN product with beta = 0 and one
// GemmPacked with both scalings at the sizes the runs use: at N = 16 and 36
// the write-back, not the FMAs, is what a call's cost moves with.
//
//	go test ./internal/blas -run NONE -bench GemmWriteBack -cpu 1
func BenchmarkGemmWriteBack(b *testing.B) {
	for _, n := range []int{16, 36, 64, 144} {
		r := rng.New(uint64(n))
		x, y, c := randomDense(r, n, n), randomDense(r, n, n), mat.New(n, n)
		p, v := PackA(x), scaling(r, n, false)
		b.Run(fmt.Sprintf("n=%d/gemm", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Gemm(false, false, 1, x, y, 0, c)
			}
		})
		b.Run(fmt.Sprintf("n=%d/packed-scaled", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemmPacked(p, y, v, v, c)
			}
		})
	}
}
