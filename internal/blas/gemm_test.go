package blas

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"questgo/internal/mat"
	"questgo/internal/parallel"
	"questgo/internal/rng"
)

// gemmShapes spans the micro-kernel edge cases: dimensions below, at, and
// just past the MR/NR tile widths, shapes straddling the pool cutoff
// (gemmPoolMin), degenerate 1-row/1-column extents and, appended by init,
// every partial-tile remainder of both kernels.
var gemmShapes = []struct{ m, n, k int }{
	{1, 1, 1},
	{1, 9, 1},
	{9, 1, 7},
	{2, 3, 5},
	{4, 4, 4},
	{5, 5, 5},
	{7, 13, 3},
	{8, 4, 17},
	{9, 5, 31},
	{16, 16, 16},
	{17, 33, 9},
	{31, 32, 33},
	{33, 33, 33},
	{64, 64, 63},   // last product the caller runs inline
	{64, 64, 64},   // gemmPoolMin: first product offered to the pool
	{61, 67, 65},   // pooled, partial tiles on both borders
	{65, 100, 31},  // inline, partial tiles on both borders
	{129, 65, 100}, // m past MC
	{100, 129, 65},
	{70, 40, 300}, // k past KC: two k slabs accumulate into each tile
}

// Every remainder m mod 8 and m mod 4 (the 8x8/8x4 and 4x4 kernels' row
// tiles) against every n mod 8 and n mod 4 (their column tiles), behind one
// full tile, at k = 1..3.
func init() {
	for m := 9; m <= 16; m++ {
		for n := 5; n <= 16; n++ {
			for k := 1; k <= 3; k++ {
				gemmShapes = append(gemmShapes, struct{ m, n, k int }{m, n, k})
			}
		}
	}
}

// TestGemmEdgeCasesVsNaive sweeps shapes x trans combos x alpha/beta values
// against the reference triple loop. This covers m, n, k not divisible by
// the register tile, inline and pooled dispatch, and the beta pre-pass.
func TestGemmEdgeCasesVsNaive(t *testing.T) {
	r := rng.New(42)
	for _, sh := range gemmShapes {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for _, alpha := range []float64{0, 1, 0.5} {
					for _, beta := range []float64{0, 1, 0.5} {
						var a, b *mat.Dense
						if ta {
							a = randomDense(r, sh.k, sh.m)
						} else {
							a = randomDense(r, sh.m, sh.k)
						}
						if tb {
							b = randomDense(r, sh.n, sh.k)
						} else {
							b = randomDense(r, sh.k, sh.n)
						}
						c := randomDense(r, sh.m, sh.n)
						want := c.Clone()
						Gemm(ta, tb, alpha, a, b, beta, c)
						gemmNaive(ta, tb, alpha, a, b, beta, want)
						if !c.EqualApprox(want, 1e-11) {
							t.Fatalf("Gemm mismatch m=%d n=%d k=%d ta=%v tb=%v alpha=%v beta=%v",
								sh.m, sh.n, sh.k, ta, tb, alpha, beta)
						}
					}
				}
			}
		}
	}
}

// TestGemmBetaZeroClearsNaN: beta = 0 must overwrite C without reading it,
// so NaN/Inf garbage in the destination cannot leak into the result.
func TestGemmBetaZeroClearsNaN(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{8, 36, 64} { // inline, partial tiles, pooled
		a := randomDense(r, n, n)
		b := randomDense(r, n, n)
		c := mat.New(n, n)
		for i := range c.Data {
			c.Data[i] = math.NaN()
		}
		want := mat.New(n, n)
		Gemm(false, false, 1, a, b, 0, c)
		gemmNaive(false, false, 1, a, b, 0, want)
		if !c.EqualApprox(want, 1e-11) {
			t.Fatalf("n=%d: NaN leaked through beta=0", n)
		}
	}
}

// TestGemmNoAllocSteadyState asserts the zero-allocation contract: after
// warm-up, a Gemm call allocates nothing — contexts, packing buffers, and
// loop descriptors all come from pools. The transA case doubles as the
// regression test for the old implementation's a.Transpose() path, which
// allocated a full O(m*k) copy: any per-call allocation fails the test, let
// alone a matrix-sized one.
func TestGemmNoAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	r := rng.New(11)
	// 16: the 4x4-lattice size, all full tiles, inline. 36: partial tiles
	// on both borders (the spill tile, 64 entries under the 8x8 kernel,
	// must stay on the stack). 128: pooled.
	for _, n := range []int{16, 36, 128} {
		a := randomDense(r, n, n)
		b := randomDense(r, n, n)
		c := mat.New(n, n)
		for _, tc := range []struct {
			name   string
			ta, tb bool
		}{
			{"NN", false, false},
			{"TN", true, false},
			{"NT", false, true},
		} {
			// Warm the pools outside the measured runs.
			Gemm(tc.ta, tc.tb, 1, a, b, 0, c)
			allocs := testing.AllocsPerRun(10, func() {
				Gemm(tc.ta, tc.tb, 1, a, b, 0.5, c)
			})
			if allocs != 0 {
				t.Errorf("n=%d %s: Gemm allocated %.1f objects per call, want 0", n, tc.name, allocs)
			}
		}
	}
}

// sameBits reports whether x and y hold identical float64 bit patterns.
func sameBits(x, y *mat.Dense) bool {
	for j := 0; j < x.Cols; j++ {
		xc, yc := x.Col(j), y.Col(j)
		for i := range xc {
			if math.Float64bits(xc[i]) != math.Float64bits(yc[i]) {
				return false
			}
		}
	}
	return true
}

// eachBitwiseCase calls f on fresh random operands for every gemmShapes
// entry x transposition x alpha in {1, -1, 1.25}: the grid the bitwise
// comparisons of Gemm against itself (other packs, other kernel) run over.
// c is the product's destination; desc names the case in a failure.
func eachBitwiseCase(seed uint64, f func(desc string, ta, tb bool, alpha float64, a, b, c *mat.Dense)) {
	r := rng.New(seed)
	for _, sh := range gemmShapes {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				for _, alpha := range []float64{1, -1, 1.25} {
					ar, ac := sh.m, sh.k
					if ta {
						ar, ac = ac, ar
					}
					br, bc := sh.k, sh.n
					if tb {
						br, bc = bc, br
					}
					a, b := randomDense(r, ar, ac), randomDense(r, br, bc)
					desc := fmt.Sprintf("m=%d n=%d k=%d ta=%v tb=%v alpha=%v", sh.m, sh.n, sh.k, ta, tb, alpha)
					f(desc, ta, tb, alpha, a, b, randomDense(r, sh.m, sh.n))
				}
			}
		}
	}
}

// TestGemmBitwiseAcrossKernels: on an AVX-512 CPU the same products through
// the 8x4 and the 8x8 assembly kernel (kernNR switched under Gemm, so each
// runs its own B packing, tiling and spill edges) must agree bit for bit —
// every element is the same FMA chain over k and one add into C in both.
// This is what keeps a trajectory computed on an AVX2-only host and on an
// AVX-512 one the same trajectory.
func TestGemmBitwiseAcrossKernels(t *testing.T) {
	if kernNR != 8 {
		t.Skipf("kernel is %dx%d: the CPU (or the build) offers no AVX-512 kernel to compare with", kernMR, kernNR)
	}
	defer func() { kernNR = 8 }()
	eachBitwiseCase(37, func(desc string, ta, tb bool, alpha float64, a, b, got *mat.Dense) {
		want := got.Clone()
		kernNR = 4
		Gemm(ta, tb, alpha, a, b, 0.5, want)
		kernNR = 8
		Gemm(ta, tb, alpha, a, b, 0.5, got)
		if !sameBits(got, want) {
			t.Fatalf("%s: the 8x8 kernel's product differs from the 8x4 kernel's", desc)
		}
	})
}

// TestGemmBitwiseAcrossDispatch pins the invariant every relative bitwise
// guarantee of the stack rests on (host = device, serial = parallel spins,
// resume = continuous, service job = direct Run): whether and how the pool
// splits a product never changes which kernel or k-blocking computes a C
// tile, so the result is identical bit for bit at GOMAXPROCS 1, 2 and 4
// and when every pool worker is busy and the loops degrade to the caller.
func TestGemmBitwiseAcrossDispatch(t *testing.T) {
	type operands struct {
		ta, tb  bool
		a, b, c *mat.Dense
	}
	r := rng.New(23)
	var cases []operands
	for _, sh := range []struct{ m, n, k int }{
		{16, 16, 16},   // inline, full tiles
		{36, 36, 36},   // inline, partial tiles
		{64, 64, 64},   // at the pool cutoff
		{61, 131, 70},  // pooled, partial tiles, several chunks
		{150, 70, 300}, // pooled, m past MC, two k slabs
	} {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				ar, ac := sh.m, sh.k
				if ta {
					ar, ac = ac, ar
				}
				br, bc := sh.k, sh.n
				if tb {
					br, bc = bc, br
				}
				cases = append(cases, operands{ta, tb, randomDense(r, ar, ac), randomDense(r, br, bc), randomDense(r, sh.m, sh.n)})
			}
		}
	}
	product := func(o operands) *mat.Dense {
		c := o.c.Clone()
		Gemm(o.ta, o.tb, 1.25, o.a, o.b, 0.5, c)
		return c
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	want := make([]*mat.Dense, len(cases))
	for i, o := range cases {
		want[i] = product(o)
	}
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		for i, o := range cases {
			if !sameBits(product(o), want[i]) {
				t.Errorf("GOMAXPROCS=%d: %dx%d ta=%v tb=%v differs from the serial bits", procs, o.c.Rows, o.c.Cols, o.ta, o.tb)
			}
		}
	}
	// Saturated pool: every worker (and the caller) is inside a For body
	// issuing products, so nested loops find no idle worker.
	got := make([]*mat.Dense, len(cases))
	parallel.For(len(cases), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			got[i] = product(cases[i])
		}
	})
	for i, o := range cases {
		if !sameBits(got[i], want[i]) {
			t.Errorf("saturated pool: %dx%d ta=%v tb=%v differs from the serial bits", o.c.Rows, o.c.Cols, o.ta, o.tb)
		}
	}
}

// TestGemmInsideParallelFor pins the nested-parallelism contract from the
// caller's side: Gemm dispatches onto the same worker pool as parallel.For,
// so issuing it from inside a For body must neither deadlock nor corrupt
// results. (The pool-level nesting test lives in internal/parallel; this one
// exercises the real Gemm path, which internal/parallel cannot import.)
func TestGemmInsideParallelFor(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	r := rng.New(13)
	n := 48
	const tasks = 8
	as := make([]*mat.Dense, tasks)
	bs := make([]*mat.Dense, tasks)
	cs := make([]*mat.Dense, tasks)
	wants := make([]*mat.Dense, tasks)
	for i := range as {
		as[i] = randomDense(r, n, n)
		bs[i] = randomDense(r, n, n)
		cs[i] = mat.New(n, n)
		wants[i] = mat.New(n, n)
		gemmNaive(false, false, 1, as[i], bs[i], 0, wants[i])
	}

	done := make(chan struct{})
	go func() {
		parallel.For(tasks, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				Gemm(false, false, 1, as[i], bs[i], 0, cs[i])
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Gemm inside parallel.For deadlocked")
	}
	for i := range cs {
		if !cs[i].EqualApprox(wants[i], 1e-11) {
			t.Fatalf("task %d: nested Gemm result corrupted", i)
		}
	}
}

func TestGemmTN(t *testing.T) {
	r := rng.New(17)
	a := randomDense(r, 40, 24)
	b := randomDense(r, 40, 32)
	c := randomDense(r, 24, 32)
	want := c.Clone()
	GemmTN(1.5, a, b, 0.5, c)
	gemmNaive(true, false, 1.5, a, b, 0.5, want)
	if !c.EqualApprox(want, 1e-12) {
		t.Fatal("GemmTN disagrees with naive reference")
	}
}
