//go:build !race

package greens

import (
	"runtime"
	"testing"

	"questgo/internal/hubbard"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// TestSortByNormDescNoAllocs: the pre-pivot sort runs once per UDT step on
// pooled storage and must not allocate (sort.SliceStable cost a closure, a
// reflect swapper and a boxed slice each call).
// Race instrumentation allocates on its own, hence the build tag.
func TestSortByNormDescNoAllocs(t *testing.T) {
	r := rng.New(59)
	for _, n := range []int{16, 36, 144} {
		norms := make([]float64, n)
		for i := range norms {
			norms[i] = r.Float64()
		}
		perm := make([]int, n)
		allocs := testing.AllocsPerRun(20, func() {
			for i := range perm {
				perm[i] = i
			}
			sortByNormDesc(perm, norms)
		})
		if allocs != 0 {
			t.Errorf("n=%d: sortByNormDesc allocated %.1f objects per call, want 0", n, allocs)
		}
	}
}

// TestUDTStepNoAllocs: one UDT step — extendUDT under either pivot policy
// and over a transposed operand — and the Green's function evaluation from
// its factors run on pooled storage alone at the sizes the jobs and the
// stratification-bound workloads run: the QR header, tau, pivots, the LU
// and every work vector come back from their pools, and no view or closure
// escapes.
// Race instrumentation allocates on its own, hence the build tag.
func TestUDTStepNoAllocs(t *testing.T) {
	for _, n := range []int{16, 36, 64} {
		b := randomDense(rng.New(61), n)
		u := &UDT{Q: mat.New(n, n), D: make([]float64, n), T: mat.New(n, n)}
		work, r, tNew, g := mat.New(n, n), mat.New(n, n), mat.New(n, n), mat.New(n, n)
		initUDT(u, b, work, r)
		for _, tc := range []struct {
			name string
			run  func()
		}{
			{"extendUDT (pre-pivot)", func() { extendUDT(u, b, false, true, work, r, tNew) }},
			{"extendUDT (pivoted)", func() { extendUDT(u, b, false, false, work, r, tNew) }},
			{"extendUDT (transposed operand)", func() { extendUDT(u, b, true, true, work, r, tNew) }},
			{"GreenFromUDTInto", func() { _ = GreenFromUDTInto(g, u) }},
		} {
			tc.run() // warm the pools
			if allocs := testing.AllocsPerRun(20, tc.run); allocs != 0 {
				t.Errorf("n=%d: %s allocated %.1f objects per call, want 0", n, tc.name, allocs)
			}
		}
	}
}

// TestWrapperNoAllocs: the wrap and the block product run against the
// propagator's packed Bkin/Binv with the scalings in the GEMM write-back,
// and allocate nothing at the lattice sizes the jobs and the workloads run.
// Both spins' wrappers read the one packed pair their propagator holds:
// building the two allocates their scratch (an N x N matrix and two
// N-vectors each) and nothing of the size of a packed operand.
func TestWrapperNoAllocs(t *testing.T) {
	for _, l := range []int{4, 6, 12} {
		p, f, _ := testChain(t, l, l, 4, 2, 8, 43)
		n := l * l
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		up, dn := NewWrapper(p), NewWrapper(p)
		runtime.ReadMemStats(&after)
		// A quarter of slack covers the allocator's size classes; a packed
		// pair would add nearly the scratch again.
		if scratch := uint64(2 * 8 * (n*n + 2*n)); after.TotalAlloc-before.TotalAlloc > scratch+scratch/4 {
			t.Errorf("N=%d: two wrappers allocated %d bytes, want their %d bytes of scratch (a packed pair is %d more)",
				n, after.TotalAlloc-before.TotalAlloc, scratch, 2*8*n*n)
		}
		g, dst := randomDense(rng.New(47), n), mat.New(n, n)
		for _, tc := range []struct {
			name string
			run  func()
		}{
			{"Wrap (up)", func() { up.Wrap(g, f, hubbard.Up, 3) }},
			{"Wrap (down)", func() { dn.Wrap(g, f, hubbard.Down, 3) }},
			{"Cluster k=4", func() { up.Cluster(dst, f, hubbard.Up, 4, 4) }},
			{"Cluster k=3", func() { dn.Cluster(dst, f, hubbard.Down, 0, 3) }},
		} {
			tc.run()
			if allocs := testing.AllocsPerRun(20, tc.run); allocs != 0 {
				t.Errorf("N=%d: %s allocated %.1f objects per call, want 0", n, tc.name, allocs)
			}
		}
	}
}

// TestSeparableWrapperNoAllocs: from sepMinN sites up the wrap and the
// block product apply the Kronecker factors in place (blas.KronLeft and
// KronRight, their scratch the wrapper's) and allocate nothing, square
// (the 12x12 workload) or rectangular, at N = 144.
func TestSeparableWrapperNoAllocs(t *testing.T) {
	for _, d := range [][2]int{{12, 12}, {16, 9}} {
		p, f, _ := testChain(t, d[0], d[1], 4, 2, 8, 73)
		n := d[0] * d[1]
		w := NewWrapper(p)
		if w.sep == nil {
			t.Fatalf("N=%d: wrapper on the dense path, want the separable one from sepMinN = %d", n, sepMinN)
		}
		g, dst := randomDense(rng.New(79), n), mat.New(n, n)
		for _, tc := range []struct {
			name string
			run  func()
		}{
			{"Wrap (up)", func() { w.Wrap(g, f, hubbard.Up, 3) }},
			{"Wrap (down)", func() { w.Wrap(g, f, hubbard.Down, 3) }},
			{"Cluster k=4", func() { w.Cluster(dst, f, hubbard.Up, 4, 4) }},
			{"Cluster k=1", func() { w.Cluster(dst, f, hubbard.Down, 0, 1) }},
		} {
			tc.run()
			if allocs := testing.AllocsPerRun(20, tc.run); allocs != 0 {
				t.Errorf("%dx%d: %s allocated %.1f objects per call, want 0", d[0], d[1], tc.name, allocs)
			}
		}
	}
}
