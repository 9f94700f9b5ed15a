package obs_test

import (
	"testing"

	"questgo/internal/gpu"
	"questgo/internal/gpu/hw"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/obs"
	"questgo/internal/rng"
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
		{"hw.Graph.Replay", func(t *testing.T) func() {
			d := hw.NewDevice()
			s := d.NewStream()
			a, b, c := d.Malloc(4, 4), d.Malloc(4, 4), d.Malloc(4, 4)
			g := d.NewGraph()
			g.Capture(func() {
				s.Dgemm(false, false, 1, a, b, 0, c)
				s.Dgemm(false, false, 1, a, c, 0, b)
				s.Dgemm(false, false, 1, a, b, 0, c)
			}, s)
			return g.Replay
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
