//go:build !race

package greens

import (
	"testing"

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

// TestUDTStepNoAllocs: one UDT step — extendUDT under either pivot policy —
// and the Green's function evaluation from its factors run on pooled
// storage alone at the sizes the jobs and the stratification-bound
// workloads run: the QR header, tau, pivots, the LU and every work vector
// come back from their pools, and no view or closure escapes.
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
			{"extendUDT (pre-pivot)", func() { extendUDT(u, b, false, work, r, tNew) }},
			{"extendUDT (pivoted)", func() { extendUDT(u, b, true, work, r, tNew) }},
			{"GreenFromUDTInto", func() { GreenFromUDTInto(g, u) }},
		} {
			tc.run() // warm the pools
			if allocs := testing.AllocsPerRun(20, tc.run); allocs != 0 {
				t.Errorf("n=%d: %s allocated %.1f objects per call, want 0", n, tc.name, allocs)
			}
		}
	}
}
