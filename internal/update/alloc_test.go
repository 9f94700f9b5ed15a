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

// TestPushNoAlloc: an accepted flip assembles its rank-1 pair with one
// blas.AxpyCols per side; the accumulator slices it hands across that call
// boundary (and, on AVX2 hardware, on to assembly) must not escape.
func TestPushNoAlloc(t *testing.T) {
	const n, nd = 36, 32
	r := rng.New(9)
	s := &spinState{g: mat.New(n, n), u: mat.New(n, nd), w: mat.New(n, nd)}
	for _, x := range []*mat.Dense{s.g, s.u, s.w} {
		for i := range x.Data {
			x.Data[i] = r.Float64()
		}
	}
	for _, m := range []int{0, 5, nd - 1} {
		if allocs := testing.AllocsPerRun(20, func() { s.m = m; s.push(7, 0.3) }); allocs != 0 {
			t.Errorf("m=%d: push allocated %.1f objects per call, want 0", m, allocs)
		}
	}
}
