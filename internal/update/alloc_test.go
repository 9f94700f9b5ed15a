//go:build !race

package update

import (
	"testing"

	"questgo/internal/hubbard"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// TestHostFlushNoAlloc: the delayed-update flush runs once per slice and
// once per full block, so its two operand views must be stack values (an
// inlined mat.View) and the GEMM under them allocation-free. Race
// instrumentation allocates on its own, hence the build tag.
func TestHostFlushNoAlloc(t *testing.T) {
	p, _ := setup(t, 4, 4, 4, 4, 8, 3)
	n := p.Model.N()
	h := newHost(p, hubbard.Up, n)
	r := rng.New(5)
	g, u, w := mat.New(n, n), mat.New(n, n), mat.New(n, n)
	for _, x := range []*mat.Dense{g, u, w} {
		for i := range x.Data {
			x.Data[i] = r.Float64()
		}
	}
	for _, m := range []int{1, 5, n} {
		h.Flush(g, u, w, m, 0) // warm the GEMM pools
		if allocs := testing.AllocsPerRun(20, func() { h.Flush(g, u, w, m, 0) }); allocs != 0 {
			t.Errorf("m=%d: host.Flush allocated %.1f objects per call, want 0", m, allocs)
		}
	}
}
