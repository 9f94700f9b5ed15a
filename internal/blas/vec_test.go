package blas

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"questgo/internal/mat"
	"questgo/internal/rng"
)

// The stride-1 layer (axpy, axpyCols, dot, applyReflector, packRows,
// packCols) has two bodies on an AVX2 build and one everywhere else. The
// oracles below hold for whichever body the build selects, and are what
// TestVecKernelsMatchPortable, TestAxpyColsMatchesAxpy,
// TestReflectorMatchesLarf and FuzzVecKernels run:
//
//   - packs: bitwise the portable loop, nothing written past kc*w, nothing
//     read outside the kc x w source window;
//   - axpy: bitwise math.FMA(alpha, x[i], y[i]) where the vector kernel runs
//     (kernMR == 8), within the unfused loop's two roundings of it otherwise; y[n:] untouched;
//   - axpyCols: bitwise the gather from y0, the axpy calls it replaces (±0
//     coefficients skipped) and one multiply by the scale per element, on
//     the selected body against axpy and on the portable body against
//     axpyGo, whatever the coefficients (NaN, ±Inf, subnormal); nothing read
//     outside the n x m window or y0's n strided elements, y[n:] untouched;
//   - dot: within n*eps*sum|x_i*y_i| of the exact sum;
//   - applyReflector: bitwise the per-column dot and axpy(-tau*w) it fuses
//     (±0 coefficients skipped), the selected body against Dot and Axpy and
//     the portable body against dotGo and axpyGo; nothing read or written
//     outside the m x n window and v;
//   - every result is the same bits whatever the operands' offset into
//     their backing arrays (no alignment peeling).

const vecPad = 8 // sentinel elements behind every operand

// vecOperand places n graded random values at offset off of a fresh array
// whose other elements are fill (NaN for sources: a read outside the slice
// poisons the result; a finite sentinel for destinations).
func vecOperand(r *rng.Rand, off, n int, fill float64) (back, v []float64) {
	back = make([]float64, off+n+vecPad)
	for i := range back {
		back[i] = fill
	}
	v = back[off : off+n]
	for i := range v {
		v[i] = math.Ldexp(2*r.Float64()-1, int(r.Float64()*40)-20)
	}
	return back, v
}

func bitsEqual(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// untouched reports whether every element of back outside [off, off+n) still
// holds fill.
func untouched(back []float64, off, n int, fill float64) bool {
	for i, v := range back {
		if (i < off || i >= off+n) && math.Float64bits(v) != math.Float64bits(fill) {
			return false
		}
	}
	return true
}

const sentinel = -12345.678

func checkAxpy(t *testing.T, n int, alpha float64, seed uint64) {
	t.Helper()
	var ref []float64
	for off := 0; off < 4; off++ {
		r := rng.New(seed)
		_, x := vecOperand(r, off, n, math.NaN())
		// y sits at a different phase from x, so no pair of offsets is
		// mutually aligned by accident.
		yback, y := vecOperand(r, 3-off, n, sentinel)
		want := make([]float64, n)
		for i := range want {
			want[i] = math.FMA(alpha, x[i], y[i])
		}
		axpy(alpha, x, y)
		if !untouched(yback, 3-off, n, sentinel) {
			t.Fatalf("axpy n=%d off=%d: wrote outside y[:n]", n, off)
		}
		if kernMR == 8 {
			if !bitsEqual(y, want) {
				t.Fatalf("axpy n=%d off=%d alpha=%v: not bitwise math.FMA", n, off, alpha)
			}
		} else {
			for i := range y {
				if d := math.Abs(y[i] - want[i]); d > 0x1p-52*(math.Abs(alpha*x[i])+math.Abs(want[i])) || math.IsNaN(d) {
					t.Fatalf("axpy n=%d off=%d alpha=%v: y[%d]=%v, fma gives %v", n, off, alpha, i, y[i], want[i])
				}
			}
		}
		if off == 0 {
			ref = append(ref, y...)
		} else if !bitsEqual(y, ref) {
			t.Fatalf("axpy n=%d alpha=%v: bits at offset %d differ from offset 0", n, alpha, off)
		}
	}
}

// checkAxpyCols runs one n x m AxpyCols, A at leading dimension lda > n
// with every element outside the window NaN, against what it stands for: y
// gathered from y0, the Axpy calls, a multiply by scale — the selected body
// against axpy, the portable body against axpyGo. incy0 0 runs in place (y0
// is y); otherwise y0 is its own operand at that stride with NaN between its
// elements. The coefficients mix graded values with ±0 and subnormals, and
// with wild set also NaN and ±Inf (A then holds a few infinities too); the
// starting values hold a few -0, which a coefficient of +0 would turn into
// +0 if it were not skipped.
func checkAxpyCols(t *testing.T, n, m, incx, incy0 int, scale float64, wild bool, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	lda := n + 1 + int(seed%3)
	aoff, xoff, yoff := int(seed%4), int(seed/4%4), int(seed/16%4)
	graded := func() float64 { return math.Ldexp(2*r.Float64()-1, int(r.Float64()*40)-20) }
	specials := []float64{0, math.Copysign(0, -1), 0x1p-1060, -3e-320}
	if wild {
		specials = append(specials, math.NaN(), math.Inf(1), math.Inf(-1))
	}
	nans := func(n int) []float64 {
		v := make([]float64, n+vecPad)
		for i := range v {
			v[i] = math.NaN()
		}
		return v
	}
	a := nans(aoff + m*lda)[aoff:]
	for c := 0; c < m; c++ {
		for i := 0; i < n; i++ {
			a[c*lda+i] = graded()
			if wild && r.Float64() < 0.02 {
				a[c*lda+i] = math.Inf(1)
			}
		}
	}
	x := nans(xoff + m*incx)[xoff:] // NaN between the strided coefficients
	for c := 0; c < m; c++ {
		x[c*incx] = graded()
		if r.Float64() < 0.25 {
			x[c*incx] = specials[int(r.Float64()*float64(len(specials)))]
		}
	}
	start := func() float64 {
		if r.Float64() < 0.1 {
			return math.Copysign(0, -1)
		}
		return graded()
	}
	yback, y := vecOperand(r, yoff, n, sentinel)
	for i := range y {
		y[i] = start()
	}
	var y0 []float64
	if incy0 > 0 {
		y0 = nans(3 + n*incy0)[3:]
		for i := 0; i < n; i++ {
			y0[i*incy0] = start()
		}
	}
	for _, body := range []struct {
		name string
		cols func(n, m int, a []float64, lda int, x []float64, incx int, y0 []float64, incy0 int, scale float64, y []float64)
		axpy func(alpha float64, x, y []float64)
	}{
		{"selected", AxpyCols, axpy},
		{"portable", axpyColsGo, axpyGo},
	} {
		got := append([]float64(nil), yback...)
		want := append([]float64(nil), yback...)
		src, inc := got[yoff:], 1
		if incy0 > 0 {
			src, inc = y0, incy0
			for i := 0; i < n; i++ {
				want[yoff+i] = y0[i*incy0]
			}
		}
		body.cols(n, m, a, lda, x, incx, src, inc, scale, got[yoff:])
		for c := 0; c < m; c++ {
			if alpha := x[c*incx]; alpha != 0 {
				body.axpy(alpha, a[c*lda:c*lda+n], want[yoff:yoff+n])
			}
		}
		for i := range want[yoff : yoff+n] {
			want[yoff+i] *= scale
		}
		if !untouched(got, yoff, n, sentinel) {
			t.Fatalf("axpyCols (%s) n=%d m=%d incx=%d incy0=%d: wrote outside y[:n]", body.name, n, m, incx, incy0)
		}
		if !bitsEqual(got, want) {
			t.Fatalf("axpyCols (%s) n=%d m=%d lda=%d incx=%d incy0=%d scale=%v wild=%v: not bitwise the gather, %d axpy calls and the scaling\n got %v\nwant %v",
				body.name, n, m, lda, incx, incy0, scale, wild, m, got[yoff:yoff+n], want[yoff:yoff+n])
		}
	}
}

// checkReflector applies one reflector of length m with scale tau to an m x
// n matrix at leading dimension ldc > m and holds it to what it stands for:
// per column, Dot then Axpy(-tau*w) — the selected body (ApplyReflector)
// against Dot and Axpy, the portable body against dotGo and axpyGo. The
// element right past each column is a finite sentinel (a read there moves
// the dot, a write there shows) and every other element outside the window,
// and around v, is NaN. Some columns are zero, with -0 entries a +0 update
// would turn to +0, and some are so small against v that their dot
// underflows: both coefficients are ±0 and must be skipped. With wild set, C
// and v also hold NaN, ±Inf and subnormal entries.
func checkReflector(t *testing.T, m, n int, tau float64, wild bool, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	ldc := m + 1 + int(seed%3)
	coff, voff := int(seed%4), int(seed/4%4)
	graded := func() float64 { return math.Ldexp(2*r.Float64()-1, int(r.Float64()*40)-20) }
	specials := []float64{0x1p-1060, -3e-320, math.NaN(), math.Inf(1), math.Inf(-1)}
	entry := func() float64 {
		if wild && r.Float64() < 0.05 {
			return specials[int(r.Float64()*float64(len(specials)))]
		}
		return graded()
	}
	vback := make([]float64, voff+m+vecPad)
	for i := range vback {
		vback[i] = math.NaN()
	}
	v := vback[voff : voff+m]
	for i := range v {
		v[i] = entry()
	}
	if m > 0 && r.Float64() < 0.5 {
		v[0] = 1 // the unit head lapack stores before an update
	}
	back := make([]float64, coff+n*ldc+vecPad)
	for i := range back {
		back[i] = math.NaN()
	}
	for j := 0; j < n; j++ {
		col := back[coff+j*ldc : coff+j*ldc+m]
		kind := r.Float64()
		for i := range col {
			switch {
			case kind < 0.1: // a zero column: the coefficient is ±0
				col[i] = math.Copysign(0, r.Float64()-0.5)
			case kind < 0.2: // a column whose dot with v underflows
				col[i] = math.Ldexp(2*r.Float64()-1, -1070)
			default:
				col[i] = entry()
			}
		}
		back[coff+j*ldc+m] = sentinel
	}
	if kind := r.Float64(); kind < 0.2 {
		for i := range v {
			v[i] = math.Ldexp(2*r.Float64()-1, -20) // keep the underflow columns underflowing
		}
	}
	for _, body := range []struct {
		name    string
		reflect func(c []float64)
		dot     func(x, y []float64) float64
		axpy    func(alpha float64, x, y []float64)
	}{
		{"selected", func(c []float64) {
			ApplyReflector(v, tau, &mat.Dense{Rows: m, Cols: n, Stride: ldc, Data: c[coff:]})
		}, Dot, Axpy},
		{"portable", func(c []float64) {
			if tau != 0 {
				applyReflectorGo(m, n, v, tau, c[coff:], ldc)
			}
		}, dotGo, axpyGo},
	} {
		got := append([]float64(nil), back...)
		want := append([]float64(nil), back...)
		body.reflect(got)
		if tau != 0 {
			w := make([]float64, n)
			for j := range w {
				w[j] = body.dot(want[coff+j*ldc:coff+j*ldc+m], v)
			}
			for j, wj := range w {
				if alpha := -tau * wj; alpha != 0 {
					body.axpy(alpha, v, want[coff+j*ldc:coff+j*ldc+m])
				}
			}
		}
		if !bitsEqual(got, want) {
			t.Fatalf("reflector (%s) m=%d n=%d ldc=%d tau=%v wild=%v: not bitwise the per-column dot and axpy (or wrote outside the window)",
				body.name, m, n, ldc, tau, wild)
		}
	}
}

func checkDot(t *testing.T, n int, seed uint64) {
	t.Helper()
	var ref float64
	for off := 0; off < 4; off++ {
		r := rng.New(seed)
		_, x := vecOperand(r, off, n, math.NaN())
		_, y := vecOperand(r, 3-off, n, math.NaN())
		got := dot(x, y)
		exact, abs := new(big.Float).SetPrec(2048), 0.0
		for i := range x {
			p := new(big.Float).SetPrec(2048).Mul(big.NewFloat(x[i]), big.NewFloat(y[i]))
			exact.Add(exact, p)
			abs += math.Abs(x[i] * y[i])
		}
		diff, _ := new(big.Float).Sub(exact, big.NewFloat(got)).Float64()
		if tol := float64(n) * 0x1p-52 * abs; math.IsNaN(got) || math.Abs(diff) > tol {
			t.Fatalf("dot n=%d off=%d: %v is %.3e from the exact sum, tolerance %.3e", n, off, got, diff, tol)
		}
		if off == 0 {
			ref = got
		} else if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("dot n=%d: bits at offset %d differ from offset 0", n, off)
		}
	}
}

// checkPack runs one full micro-panel (the case the vector kernels take)
// through pack and through the portable loop portable, from a source of
// leading dimension ld whose elements outside the packed window are NaN.
// rows selects the packRows layout (w contiguous source elements per k)
// over the packCols one (kc contiguous source elements per column).
func checkPack(t *testing.T, rows bool, kc, w, ld int, alpha float64, seed uint64) {
	t.Helper()
	pack, portable, major, minor := packCols, packColsGo, w, kc
	if rows {
		pack, portable, major, minor = packRows, packRowsGo, kc, w
	}
	var ref []float64
	for off := 0; off < 4; off++ {
		r := rng.New(seed)
		extent := (major-1)*ld + minor
		if extent < 0 {
			extent = 0
		}
		sback, src := vecOperand(r, off, extent, math.NaN())
		for i := range src {
			if i%ld >= minor {
				src[i] = math.NaN()
			}
		}
		dback, dst := vecOperand(r, 3-off, kc*w, sentinel)
		want := make([]float64, kc*w)
		portable(want, src, ld, kc, w, w, alpha)
		// The wrappers take the operand's tail slice, as runPackA/B pass it.
		pack(dback[3-off:], sback[off:], ld, kc, w, w, alpha)
		if !untouched(dback, 3-off, kc*w, sentinel) {
			t.Fatalf("pack rows=%v kc=%d w=%d off=%d: wrote outside dst[:kc*w]", rows, kc, w, off)
		}
		if !bitsEqual(dst, want) {
			t.Fatalf("pack rows=%v kc=%d w=%d ld=%d alpha=%v off=%d: differs from the portable loop", rows, kc, w, ld, alpha, off)
		}
		if off == 0 {
			ref = append(ref, dst...)
		} else if !bitsEqual(dst, ref) {
			t.Fatalf("pack rows=%v kc=%d w=%d: bits at offset %d differ from offset 0", rows, kc, w, off)
		}
	}
}

// TestVecKernelsMatchPortable: every stride-1 kernel against its oracle for
// every length (vector length, or a panel's kc) 0..67 — all 16/4/1 block
// remainders, four times over — at slice offsets 0..3, the packs also at
// gemmKC and one short of it, both panel widths, alpha incl. 1 and -1.
func TestVecKernelsMatchPortable(t *testing.T) {
	alphas := []float64{1, -1, 0.5, -2.75, 1e-3, math.Pi}
	lengths := []int{gemmKC - 1, gemmKC}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		seed := uint64(n) + 1
		checkDot(t, n, seed)
		for _, alpha := range alphas {
			checkAxpy(t, n, alpha, seed)
			for _, w := range []int{4, 8} {
				checkPack(t, true, n, w, w+5, alpha, seed)
				checkPack(t, false, n, w, n+3, alpha, seed)
			}
		}
	}
}

// TestAxpyColsMatchesAxpy: the column-blocked axpy against the Axpy calls
// it replaces, for every row count 0..67 (all 16/4/1 block remainders, four
// times over) and column count 0..33 (past a full delay block), contiguous
// and strided coefficients, tame and non-finite ones, starting values in
// place, contiguous or strided, and the scales push uses (1 is the bare Axpy
// calls, -1 a negation) and another.
func TestAxpyColsMatchesAxpy(t *testing.T) {
	scales := []float64{1, -1, -0.3}
	for n := 0; n <= 67; n++ {
		for m := 0; m <= 33; m++ {
			for _, incx := range []int{1, 3} {
				for _, wild := range []bool{false, true} {
					seed := uint64(n*1000 + m*10 + incx)
					for i, incy0 := range []int{0, 1, 5} { // 0: in place
						checkAxpyCols(t, n, m, incx, incy0, scales[(int(seed)+i)%3], wild, seed)
					}
				}
			}
		}
	}
}

// TestReflectorMatchesLarf: the fused reflector update against the Dot and
// Axpy calls lapack's larf made per column, for every row count 0..67 (all
// 16/4/1 block remainders, four times over) and column count 0..33, tau 0
// (no update at all), the values Householder reflectors take (in [1, 2]) and
// others, tame and non-finite entries.
func TestReflectorMatchesLarf(t *testing.T) {
	taus := []float64{0, 1, 1.5, 2, -0.75, 1e-300}
	for m := 0; m <= 67; m++ {
		for n := 0; n <= 33; n++ {
			for _, wild := range []bool{false, true} {
				seed := uint64(m*1000 + n*10 + 1)
				if wild {
					seed++
				}
				checkReflector(t, m, n, taus[int(seed/2)%len(taus)], wild, seed)
			}
		}
	}
}

// BenchmarkApplyReflector times one reflector update of an m x (m-1)
// block — the first step of an m x m geqr2 — fused, and as the per-column
// Dot and Axpy calls it replaced:
//
//	go test ./internal/blas -run NONE -bench ApplyReflector -cpu 1
func BenchmarkApplyReflector(b *testing.B) {
	for _, m := range []int{16, 36, 64, 144} {
		r := rng.New(uint64(m))
		c := mat.New(m, m-1)
		for i := range c.Data {
			c.Data[i] = 2*r.Float64() - 1
		}
		v := make([]float64, m)
		for i := range v {
			v[i] = 2*r.Float64() - 1
		}
		v[0] = 1
		tau := 2 / Dot(v, v) // H is orthogonal, so repeated updates stay bounded
		b.Run(fmt.Sprintf("m=%d/fused", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ApplyReflector(v, tau, c)
			}
		})
		b.Run(fmt.Sprintf("m=%d/dot+axpy", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := 0; j < c.Cols; j++ {
					Axpy(-tau*Dot(c.Col(j), v), v, c.Col(j))
				}
			}
		})
	}
}

// gemmPortablePacks is runPacked + Gemm's beta pass with every micro-panel
// packed by the portable loops: same blocking, same micro-kernel, so any
// bit it disagrees on with Gemm was changed by a pack kernel.
func gemmPortablePacks(ta, tb bool, alpha float64, a, b *mat.Dense, beta float64, c *mat.Dense) {
	ctx := &gemmCtx{
		aData: a.Data, as: a.Stride, transA: ta,
		bData: b.Data, bs: b.Stride, transB: tb,
		cData: c.Data, cs: c.Stride,
		alpha: alpha, beta: beta,
		m: c.Rows, n: c.Cols, k: a.Cols,
	}
	if ta {
		ctx.k = a.Rows
	}
	ctx.runScale(0, ctx.n)
	mr, nr := kernMR, kernNR
	for jc := 0; jc < ctx.n; jc += gemmNC {
		ctx.jc, ctx.nb = jc, min(gemmNC, ctx.n-jc)
		npan := (ctx.nb + nr - 1) / nr
		for pc := 0; pc < ctx.k; pc += gemmKC {
			ctx.pc, ctx.kc = pc, min(gemmKC, ctx.k-pc)
			ctx.bp = make([]float64, npan*nr*ctx.kc)
			for p := 0; p < npan; p++ {
				j0 := jc + p*nr
				jw := min(nr, jc+ctx.nb-j0)
				dst := ctx.bp[p*nr*ctx.kc:]
				if !tb {
					packColsGo(dst, b.Data[pc+j0*b.Stride:], b.Stride, ctx.kc, nr, jw, 1)
				} else {
					packRowsGo(dst, b.Data[j0+pc*b.Stride:], b.Stride, ctx.kc, nr, jw, 1)
				}
			}
			for ic := 0; ic < ctx.m; ic += gemmMC {
				ctx.ic, ctx.mb = ic, min(gemmMC, ctx.m-ic)
				mpan := (ctx.mb + mr - 1) / mr
				ctx.ap = make([]float64, mpan*mr*ctx.kc)
				for ir := 0; ir < mpan; ir++ {
					i0 := ic + ir*mr
					iw := min(mr, ic+ctx.mb-i0)
					dst := ctx.ap[ir*mr*ctx.kc:]
					if !ta {
						packRowsGo(dst, a.Data[i0+pc*a.Stride:], a.Stride, ctx.kc, mr, iw, alpha)
					} else {
						packColsGo(dst, a.Data[pc+i0*a.Stride:], a.Stride, ctx.kc, mr, iw, alpha)
					}
				}
				ctx.runMacro(0, npan)
			}
		}
	}
}

// TestGemmPackBitwise: the pack kernels are a copy and one multiply, so
// Gemm must produce the same bits whether its panels were packed by them or
// by the portable loops — over every edge shape, transposition and a few
// scalars. Together with an unchanged micro-kernel this is what keeps
// blas.Gemm bitwise the parent commit's on the AVX2 build.
func TestGemmPackBitwise(t *testing.T) {
	eachBitwiseCase(31, func(desc string, ta, tb bool, alpha float64, a, b, got *mat.Dense) {
		want := got.Clone()
		Gemm(ta, tb, alpha, a, b, 0.5, got)
		gemmPortablePacks(ta, tb, alpha, a, b, 0.5, want)
		if !sameBits(got, want) {
			t.Fatalf("%s: Gemm differs from the portable-pack product", desc)
		}
	})
}
