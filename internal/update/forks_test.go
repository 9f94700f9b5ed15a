package update_test

import (
	"testing"

	"questgo/internal/gpu"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
	"questgo/internal/update"
)

// fullBlocks wraps a backend and counts the spin-up flushes of a full delay
// block. Those are exactly the mid-slice flushes: proposeFlip flushes the
// moment the block fills, so the flush that ends a slice always finds it
// short.
type fullBlocks struct {
	update.Backend
	nd    int
	count *int64
}

func (b fullBlocks) Flush(g, u, w *mat.Dense, m, s int) {
	if m == b.nd {
		*b.count++
	}
	b.Backend.Flush(g, u, w, m, s)
}

// TestForksPerSweep pins the fused sweep's fork count: one step per slice,
// one more per cluster boundary, one per full delay block in mid-slice —
// L + NC + full blocks, not the 2L + 3NC of a fork per phase — on the host
// and device backends, forked and under SerialSpins alike.
func TestForksPerSweep(t *testing.T) {
	const sweeps = 3
	for _, tc := range []struct {
		name         string
		nx, l, k, nd int
		beta         float64
	}{
		{"4x4 L=40 k=10", 4, 40, 10, 0, 4},
		{"6x6 L=160 k=8", 6, 160, 8, 0, 16},
		{"4x4 L=40 k=10 delay 2", 4, 40, 10, 2, 4},
	} {
		for _, engine := range []string{"host", "device"} {
			for _, serial := range []bool{false, true} {
				mk := update.NewHost
				if engine == "device" {
					mk = gpu.NewBackend(gpu.NewGroup(2), true)
				}
				m, err := hubbard.NewModel(lattice.NewSquare(tc.nx, tc.nx, 1), 4, 0, tc.beta, tc.l)
				if err != nil {
					t.Fatal(err)
				}
				p := hubbard.NewPropagator(m)
				f := hubbard.NewRandomField(tc.l, m.N(), rng.New(7))
				var full int64
				counting := func(p *hubbard.Propagator, sigma hubbard.Spin, nd int) update.Backend {
					if sigma != hubbard.Up {
						return mk(p, sigma, nd)
					}
					return fullBlocks{mk(p, sigma, nd), nd, &full}
				}
				opts := update.Options{ClusterK: tc.k, Delay: tc.nd, PrePivot: true, SerialSpins: serial}
				sw := update.NewSweeperOn(p, f, rng.New(11), opts, counting)
				before := sw.Forks()
				for i := 0; i < sweeps; i++ {
					sw.Sweep()
				}
				want := int64(sweeps*(tc.l+tc.l/tc.k)) + full
				if got := sw.Forks() - before; got != want {
					t.Errorf("%s, %s, serial=%v: %d forks in %d sweeps, want %d (L + NC each, plus %d full delay blocks)",
						tc.name, engine, serial, got, sweeps, want, full)
				}
				if tc.nd > 0 && full == 0 {
					t.Errorf("%s, %s: no delay block of %d ever filled; the mid-slice term went untested", tc.name, engine, tc.nd)
				}
			}
		}
	}
}
