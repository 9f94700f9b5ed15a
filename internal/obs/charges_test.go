package obs_test

import (
	"testing"

	"questgo/internal/blas"
	"questgo/internal/gpu"
	"questgo/internal/gpu/hw"
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/obs"
	"questgo/internal/rng"
	"questgo/internal/update"
)

// TestKernelCharges pins by value the op-counter charges that no other
// tier-1 test fails without. Each row builds a tiny input, runs one
// exported entry point and compares the delta of every counter its charge
// site owns. CHANGES.md (PR 29) maps all 15 obs.Add/obs.AddGemm sites to
// the test that fails when that site is deleted.
func TestKernelCharges(t *testing.T) {
	for _, tc := range []struct {
		entry   string
		prepare func(t *testing.T) func() // builds the input; the returned call is measured
		want    map[obs.Op]int64
	}{
		{"hw.Graph.Begin", func(t *testing.T) func() {
			d := hw.NewDevice()
			s := d.NewStream()
			a, b, c := d.Malloc(4, 4), d.Malloc(4, 4), d.Malloc(4, 4)
			g := d.NewGraph(s)
			return func() {
				g.Begin()
				s.Dgemm(false, false, 1, a, b, 0, c)
				s.Dgemm(false, false, 1, a, c, 0, b)
				s.Dgemm(false, false, 1, a, b, 0, c)
				g.End()
			}
		}, map[obs.Op]int64{obs.OpGraphReplays: 1, obs.OpGraphNodes: 3}},

		{"gpu.Accelerator.Wrap", func(t *testing.T) func() {
			lat := lattice.NewSquare(2, 2, 1)
			m, err := hubbard.NewModel(lat, 4, 0, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			p := hubbard.NewPropagator(m)
			f := hubbard.NewRandomField(m.L, m.N(), rng.New(1))
			acc := gpu.NewAccelerator(hw.NewDevice(), p, 1, false)
			g := mat.New(m.N(), m.N())
			return func() { acc.Wrap(g, f, hubbard.Up, 0) }
		}, map[obs.Op]int64{obs.OpWraps: 1}},

		// A Kronecker-factor product is one call per stage, each of the
		// stage's flops: 2N²·Nx along x and 2N²·Ny along y, at 5x3.
		{"blas.KronLeft", func(t *testing.T) func() {
			fx, fy, x := randomMatrix(5, 5), randomMatrix(3, 3), randomMatrix(15, 15)
			work := make([]float64, blas.KronWork(15))
			return func() { blas.KronLeft(fx, fy, x, work, x) }
		}, map[obs.Op]int64{obs.OpGemmCalls: 2, obs.OpGemmFlops: 2 * 15 * 15 * (5 + 3)}},
		{"blas.KronRight", func(t *testing.T) func() {
			fx, fy, x := randomMatrix(5, 5), randomMatrix(3, 3), randomMatrix(15, 15)
			work := make([]float64, blas.KronWork(15))
			return func() { blas.KronRight(fx, fy, x, nil, nil, work, x) }
		}, map[obs.Op]int64{obs.OpGemmCalls: 2, obs.OpGemmFlops: 2 * 15 * 15 * (5 + 3)}},

		// The separable wrap at 16x9 (N = 144 = sepMinN): KronLeft and
		// KronRight, two stages each, 2N²·Nx each along x and 2N²·Ny each
		// along y.
		{"greens.Wrapper.Wrap (separable)", func(t *testing.T) func() {
			m, err := hubbard.NewModel(lattice.NewSquare(16, 9, 1), 4, 0, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			p := hubbard.NewPropagator(m)
			f := hubbard.NewRandomField(m.L, m.N(), rng.New(1))
			w, g := greens.NewWrapper(p), randomMatrix(m.N(), m.N())
			return func() { w.Wrap(g, f, hubbard.Up, 0) }
		}, map[obs.Op]int64{obs.OpWraps: 1, obs.OpGemmCalls: 4, obs.OpGemmFlops: 4 * 144 * 144 * (16 + 9)}},

		// 40x36: min(m, n) = 36 is one full 32-column panel plus a 4-column one.
		{"lapack.QRPFactor", func(t *testing.T) func() {
			a := randomMatrix(40, 36)
			return func() {
				qr, piv := lapack.QRPFactor(a)
				qr.Release()
				lapack.PutPivot(&piv)
			}
		}, map[obs.Op]int64{obs.OpQRPFactorizations: 1, obs.OpQRPPanels: 2}},

		{"lapack.QRPFactorLevel2", func(t *testing.T) func() {
			a := randomMatrix(40, 36)
			return func() {
				qr, piv := lapack.QRPFactorLevel2(a)
				qr.Release()
				lapack.PutPivot(&piv)
			}
		}, map[obs.Op]int64{obs.OpQRPFactorizations: 1}},
	} {
		t.Run(tc.entry, func(t *testing.T) {
			call := tc.prepare(t)
			before := obs.Counts()
			call()
			delta := obs.Counts().Sub(before)
			for op, want := range tc.want {
				if delta[op] != want {
					t.Errorf("%s charged %s %+d, want %+d", tc.entry, op, delta[op], want)
				}
			}
		})
	}
}

func randomMatrix(rows, cols int) *mat.Dense {
	r := rng.New(7)
	a := mat.New(rows, cols)
	for j := 0; j < cols; j++ {
		for i := range a.Col(j) {
			a.Col(j)[i] = 2*r.Float64() - 1
		}
	}
	return a
}

// TestChargesPerSweep holds the instrumentation's cost to a count that does
// not grow with the lattice: a sweep may charge the collector a few intervals
// per slice and per cluster boundary, never one per site. Each of the L slice
// steps charges flush and wrap — split from a forked step's wall time on
// 6x6, lapped as measured on the inline steps of 4x4, below update's
// crossover — and each of the NC boundary forks flush, cluster and refresh;
// the sweep laps flush once per slice and refresh once per boundary: exactly
// 3L + 4NC in all, under perFork·(L + NC). Fork wait is recorded without a
// charge. A timer inside the per-site Metropolis loop adds N·L.
func TestChargesPerSweep(t *testing.T) {
	const (
		sweeps  = 3
		perFork = 4
	)
	for _, tc := range []struct {
		name     string
		nx, l, k int
		beta     float64
	}{
		{"4x4 L=40 k=10", 4, 40, 10, 4},
		{"6x6 L=160 k=8", 6, 160, 8, 16},
	} {
		for _, serial := range []bool{false, true} {
			m, err := hubbard.NewModel(lattice.NewSquare(tc.nx, tc.nx, 1), 4, 0, tc.beta, tc.l)
			if err != nil {
				t.Fatal(err)
			}
			col := obs.New()
			f := hubbard.NewRandomField(tc.l, m.N(), rng.New(7))
			opts := update.Options{ClusterK: tc.k, PrePivot: true, SerialSpins: serial, Obs: col}
			sw := update.NewSweeper(hubbard.NewPropagator(m), f, rng.New(11), opts)
			before := col.Charges()
			for i := 0; i < sweeps; i++ {
				sw.Sweep()
			}
			got := col.Charges() - before
			if want := int64(sweeps * (3*tc.l + 4*tc.l/tc.k)); got != want {
				t.Errorf("%s, serial=%v: %d collector charges in %d sweeps, want 3L + 4NC = %d each, under %d·(L + NC)",
					tc.name, serial, got, sweeps, want/sweeps, perFork)
			}
		}
	}
}
