//go:build !race

package greens

import (
	"testing"

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
