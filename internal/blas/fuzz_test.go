package blas

import (
	"math"
	"testing"

	"questgo/internal/mat"
	"questgo/internal/rng"
)

// FuzzGemmPackedVsNaive drives the packed GEMM against the reference triple
// loop over fuzzer-chosen shapes (both sides of the pool cutoff, every
// partial-tile remainder), transpose flags, scalars and data seeds. The two
// must agree to 1e-12 relative to the accumulation length — the packed
// kernel reorders the sum but performs the same floating-point work. The
// same product, with row and column factors when the seed's low bits say
// so, must also be bitwise gemmTwoPass's: every beta mode of the
// write-back (0 with a NaN-filled C, 1, anything else) on every partial
// tile the shape has.
func FuzzGemmPackedVsNaive(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint64(1), 1.0, 0.0, false, false)
	f.Add(uint8(7), uint8(5), uint8(3), uint64(2), 1.3, 0.7, true, false)
	f.Add(uint8(64), uint8(64), uint8(64), uint64(3), -0.5, 1.0, false, true)
	f.Add(uint8(33), uint8(17), uint8(65), uint64(4), 2.0, -1.0, true, true)
	f.Add(uint8(96), uint8(2), uint8(47), uint64(5), 1.0, 0.5, false, false)
	// m = m8+1 etc.: 64x64x63 runs inline, 64^3 is the first pooled product.
	f.Add(uint8(63), uint8(63), uint8(62), uint64(6), 1.0, 0.0, false, false)
	f.Add(uint8(63), uint8(63), uint8(63), uint64(7), 1.0, 0.0, true, false)
	// Partial tiles in both kernels (m mod 8, m mod 4, n mod 4) at k = 1..3.
	f.Add(uint8(12), uint8(6), uint8(0), uint64(8), 1.0, 1.0, false, false)
	f.Add(uint8(10), uint8(4), uint8(1), uint64(9), -1.0, 0.5, false, true)
	f.Add(uint8(14), uint8(5), uint8(2), uint64(10), 0.5, 0.0, true, true)
	// n = 1, 7, 8, 9, 15, 17: either side of the 8x8 kernel's column tile.
	for i, n := range []uint8{1, 7, 8, 9, 15, 17} {
		f.Add(uint8(8+i), n-1, uint8(2+i), uint64(11+i), 1.0, 0.5, i%2 == 0, i%3 == 0)
	}
	f.Fuzz(func(t *testing.T, m8, n8, k8 uint8, seed uint64, alpha, beta float64, ta, tb bool) {
		m := int(m8%96) + 1
		n := int(n8%96) + 1
		k := int(k8%96) + 1
		// Relative comparison: non-finite or huge scalars only probe
		// float64 overflow, not the kernel.
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 16 ||
			math.IsNaN(beta) || math.IsInf(beta, 0) || math.Abs(beta) > 16 {
			t.Skip("degenerate scalars")
		}
		r := rng.New(seed)
		ar, ac := m, k
		if ta {
			ar, ac = k, m
		}
		br, bc := k, n
		if tb {
			br, bc = n, k
		}
		a := randomDense(r, ar, ac)
		b := randomDense(r, br, bc)
		got := randomDense(r, m, n)
		want := got.Clone()
		Gemm(ta, tb, alpha, a, b, beta, got)
		gemmNaive(ta, tb, alpha, a, b, beta, want)
		tol := 1e-12 * float64(k) * (math.Abs(alpha) + math.Abs(beta) + 1)
		for j := 0; j < n; j++ {
			gc, wc := got.Col(j), want.Col(j)
			for i := range gc {
				if d := math.Abs(gc[i] - wc[i]); d > tol || math.IsNaN(d) {
					t.Fatalf("C(%d,%d): packed %v vs naive %v (|diff| %.3e > tol %.3e) m=%d n=%d k=%d ta=%v tb=%v alpha=%v beta=%v",
						i, j, gc[i], wc[i], d, tol, m, n, k, ta, tb, alpha, beta)
				}
			}
		}

		rows, cols := -1, -1
		if seed&1 == 1 {
			rows = m
		}
		if seed&2 == 2 {
			cols = n
		}
		rs, ss := scaling(r, rows, false), scaling(r, cols, false)
		got = startingC(r, m, n, beta)
		want = got.Clone()
		gemm(ta, tb, alpha, a, b, beta, got, nil, nil, rs, ss)
		gemmTwoPass(ta, tb, alpha, a, b, beta, want, rs, ss)
		if !sameBits(got, want) {
			t.Fatalf("m=%d n=%d k=%d ta=%v tb=%v alpha=%v beta=%v rows=%v cols=%v: the write-back differs from the separate passes%s",
				m, n, k, ta, tb, alpha, beta, rs != nil, ss != nil, firstDiff(got, want))
		}
	})
}

// FuzzVecKernels drives the stride-1 layer under fuzzer-chosen lengths,
// scalars, panel shapes, axpyCols, rank-1 and reflector column counts,
// coefficient and starting-value strides, and data seeds against the oracles of
// vec_test.go (each of which already runs the operands at several slice
// offsets).
func FuzzVecKernels(f *testing.F) {
	f.Add(uint16(0), uint8(0), 1.0, uint64(1))
	f.Add(uint16(3), uint8(1), -1.0, uint64(2))
	f.Add(uint16(36), uint8(5), 0.37, uint64(3))
	f.Add(uint16(67), uint8(2), -2.5e-7, uint64(4))
	f.Add(uint16(gemmKC+1), uint8(255), 3.0e5, uint64(5))
	f.Fuzz(func(t *testing.T, n16 uint16, pad uint8, alpha float64, seed uint64) {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e100 || (alpha != 0 && math.Abs(alpha) < 1e-100) {
			t.Skip("degenerate scalar: the oracles compare finite, normal results")
		}
		n := int(n16 % 600)
		checkDot(t, n, seed)
		checkAxpy(t, n, alpha, seed)
		checkAxpyCols(t, n, int(pad%40), 1+int(pad/40), int(seed>>1)%4, alpha, seed&1 == 1, seed)
		checkRank1(t, n%200, int(pad%40), 1+int(pad/40), seed&1 == 1, seed)
		checkReflector(t, n%100, int(pad%40), alpha, seed&1 == 1, seed)
		for _, w := range []int{4, 8} {
			checkPack(t, true, n, w, w+int(pad%9), alpha, seed)
			checkPack(t, false, n, w, n+int(pad%9), alpha, seed)
		}
	})
}

// FuzzKronApply drives KronLeft and KronRight on the kernel init selected
// against the two-stage GemmPacked composition they replace (kronCheck):
// factor sizes 1 to 16 each, random factors and data from the seed, the
// low bits of mode choosing the row and column scalings and the data kind
// (random, underflowing to -0 through subnormals, or with ±Inf and NaN).
// Every element must match bit for bit, out of place and in place.
func FuzzKronApply(f *testing.F) {
	f.Add(uint8(12), uint8(12), uint64(1), uint8(0))
	f.Add(uint8(16), uint8(9), uint64(2), uint8(3))
	f.Add(uint8(2), uint8(12), uint64(3), uint8(7))
	f.Add(uint8(1), uint8(16), uint64(4), uint8(9))
	f.Add(uint8(5), uint8(3), uint64(5), uint8(10))
	f.Fuzz(func(t *testing.T, nx8, ny8 uint8, seed uint64, mode uint8) {
		nx, ny := int(nx8%16)+1, int(ny8%16)+1
		kind := [...]string{"random", "tiny", "nonfinite", "random"}[mode>>2&3]
		r := rng.New(seed)
		fx, fy := kronFactor(r, nx, kind), kronFactor(r, ny, kind)
		x := mat.New(nx*ny, nx*ny)
		kronData(r, x, kind)
		var rs, ss []float64
		if mode&1 != 0 {
			rs = scaling(r, nx*ny, false)
		}
		if mode&2 != 0 {
			ss = scaling(r, nx*ny, false)
		}
		if err := kronCheck(fx, fy, x, rs, ss); err != nil {
			t.Fatalf("%dx%d %s scaled rows=%v cols=%v: %v", nx, ny, kind, rs != nil, ss != nil, err)
		}
	})
}
