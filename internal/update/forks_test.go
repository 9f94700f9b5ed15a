package update_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"questgo/internal/gpu"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/obs"
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

// model builds an nx x ny Hubbard model at U = 4 and its propagator, with a
// random field drawn from seed 7.
func model(t testing.TB, nx, ny int, mu, beta float64, l int) (*hubbard.Propagator, *hubbard.Field) {
	t.Helper()
	m, err := hubbard.NewModel(lattice.NewSquare(nx, ny, 1), 4, mu, beta, l)
	if err != nil {
		t.Fatal(err)
	}
	return hubbard.NewPropagator(m), hubbard.NewRandomField(l, m.N(), rng.New(7))
}

// TestForksPerSweep pins the sweep's fork count on both sides of the
// crossover, on the host and device backends, forked and under SerialSpins
// alike. Below StepForkMinN sites only the NC boundaries fork; the
// per-slice steps and the mid-slice flushes run inline. From StepForkMinN up
// a sweep forks once per slice step, once per boundary and once per full
// delay block in mid-slice — L + NC + full blocks, not the 2L + 3NC of a
// fork per phase. The rows also pin the crossover into (16, 36].
func TestForksPerSweep(t *testing.T) {
	const sweeps = 3
	for _, tc := range []struct {
		name         string
		nx, l, k, nd int
		beta         float64
		inline       bool
	}{
		{"4x4 L=40 k=10", 4, 40, 10, 0, 4, true},
		{"6x6 L=160 k=8", 6, 160, 8, 0, 16, false},
		{"4x4 L=40 k=10 delay 2", 4, 40, 10, 2, 4, true},
		{"6x6 L=40 k=10 delay 2", 6, 40, 10, 2, 4, false},
	} {
		if n := tc.nx * tc.nx; (n < update.StepForkMinN) != tc.inline {
			t.Fatalf("%s: N = %d against crossover %d, want inline steps %v", tc.name, n, update.StepForkMinN, tc.inline)
		}
		for _, engine := range []string{"host", "device"} {
			for _, serial := range []bool{false, true} {
				mk := update.NewHost
				if engine == "device" {
					mk = gpu.NewBackend(gpu.NewGroup(2), true)
				}
				p, f := model(t, tc.nx, tc.nx, 0, tc.beta, tc.l)
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
				nc := tc.l / tc.k
				want, what := int64(sweeps*nc), "NC each"
				if !tc.inline {
					want, what = int64(sweeps*(tc.l+nc))+full, fmt.Sprintf("L + NC each, plus %d full delay blocks", full)
				}
				if got := sw.Forks() - before; got != want {
					t.Errorf("%s, %s, serial=%v: %d forks in %d sweeps, want %d (%s)",
						tc.name, engine, serial, got, sweeps, want, what)
				}
				if tc.nd > 0 && full == 0 {
					t.Errorf("%s, %s: no delay block of %d ever filled; the mid-slice term went untested", tc.name, engine, tc.nd)
				}
			}
		}
	}
}

// chainRun is what a few sweeps leave behind: the field, both Green's
// functions, the sign, the counters, the drift, the collector's document
// minus its timings (op counts and stability block included) and, on the
// device engine, each device's modeled clock and kernel count.
type chainRun struct {
	field              [][]float64
	gUp, gDn           []float64
	sign, drift        float64
	accepted, proposed int64
	metrics            obs.Metrics
	devices            []string
}

func (r *chainRun) diff(o *chainRun) string {
	for l := range r.field {
		if !slices.Equal(r.field[l], o.field[l]) {
			return fmt.Sprintf("field differs at slice %d", l)
		}
	}
	switch {
	case !slices.Equal(r.gUp, o.gUp):
		return "spin-up G differs"
	case !slices.Equal(r.gDn, o.gDn):
		return "spin-down G differs"
	case r.sign != o.sign || r.drift != o.drift || r.accepted != o.accepted || r.proposed != o.proposed:
		return fmt.Sprintf("sign/drift/counters %v/%v/%d/%d, want %v/%v/%d/%d",
			r.sign, r.drift, r.accepted, r.proposed, o.sign, o.drift, o.accepted, o.proposed)
	case !reflect.DeepEqual(r.metrics, o.metrics):
		return fmt.Sprintf("metrics minus timings differ:\n got %+v\nwant %+v", r.metrics, o.metrics)
	case !slices.Equal(r.devices, o.devices):
		return fmt.Sprintf("devices %v, want %v", r.devices, o.devices)
	}
	return ""
}

// TestSpinParallelMatchesSerial: the spin fork only reorders *which
// goroutine* executes each sector's arithmetic, never the arithmetic itself.
// At N = 16 (below the crossover) and N = 36 (above it), with the QRP
// refresh (Algorithm 2) and the pre-pivoted one (Algorithm 3), on the host
// and on two devices with command graphs, at GOMAXPROCS 1, 2 and 4, sweeps
// with forked per-slice steps, with inline ones (SetForkSteps moves the
// crossover) and under SerialSpins must agree bit for bit: field, Green's
// functions, sign, counters, drift, every op count, the stability block and
// the devices' modeled clocks. Off half filling, with a delay block of 8 so
// mid-slice flushes happen, and with residual checks beside the sweep. Run
// with -race this also exercises the concurrent wrap/flush/refresh phases.
func TestSpinParallelMatchesSerial(t *testing.T) {
	const sweeps, l = 3, 40
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, nx := range []int{4, 6} {
		p, f0 := model(t, nx, nx, 0.5, 4, l)
		for _, engine := range []string{"host", "2 devices + graphs"} {
			for _, prePivot := range []bool{false, true} {
				var ref *chainRun
				var refName string
				for _, procs := range []int{1, 2, 4} {
					for _, mode := range []string{"forked steps", "inline steps", "serial spins"} {
						name := fmt.Sprintf("N=%d, %s, prePivot=%v, GOMAXPROCS=%d, %s", nx*nx, engine, prePivot, procs, mode)
						runtime.GOMAXPROCS(procs)
						mk, group := update.NewHost, (*gpu.Group)(nil)
						if engine != "host" {
							group = gpu.NewGroup(2)
							mk = gpu.NewBackend(group, true)
						}
						f := f0.Clone()
						col := obs.New()
						sw := update.NewSweeperOn(p, f, rng.New(13), update.Options{
							ClusterK: 10, Delay: 8, PrePivot: prePivot,
							SerialSpins: mode == "serial spins", Obs: col, StabilityEvery: 3,
						}, mk)
						if mode != "serial spins" {
							sw.SetForkSteps(mode == "forked steps")
						}
						col.Reset()
						for i := 0; i < sweeps; i++ {
							sw.Sweep()
						}
						got := &chainRun{
							field:   f.H,
							gUp:     slices.Clone(sw.GreenUp().Data),
							gDn:     slices.Clone(sw.GreenDn().Data),
							sign:    sw.Sign(),
							drift:   sw.MaxWrapDrift(),
							metrics: col.Metrics().WithoutTimings(),
						}
						got.accepted, got.proposed = sw.Counters()
						if group != nil {
							for _, d := range group.Devs {
								got.devices = append(got.devices, fmt.Sprintf("%v/%d", d.Clock(), d.Kernels()))
							}
						}
						if ref == nil {
							ref, refName = got, name
							if got.metrics.Stability.StratResidualSamples == 0 || got.metrics.Ops.DelayedFlushes == 0 {
								t.Errorf("%s: no residual samples or flushes; the run went untested", name)
							}
						} else if d := got.diff(ref); d != "" {
							t.Errorf("%s against %s: %s", name, refName, d)
						}
					}
				}
			}
		}
	}
}

// TestForkWaitRecorded: a timed fork records the wall time beyond its longer
// sector as fork wait, without a collector charge of its own (the count is
// TestChargesPerSweep's); under SerialSpins nothing forks and nothing is
// recorded. The boundary forks on both sides of the crossover, so both
// lattices record some.
func TestForkWaitRecorded(t *testing.T) {
	for _, nx := range []int{4, 6} {
		for _, serial := range []bool{false, true} {
			p, f := model(t, nx, nx, 0, 4, 40)
			col := obs.New()
			sw := update.NewSweeper(p, f, rng.New(11), update.Options{ClusterK: 10, PrePivot: true, SerialSpins: serial, Obs: col})
			col.Reset()
			sw.Sweep()
			m := col.Metrics()
			if w := m.ForkWaitMS; (w > 0) == serial || w < 0 || w > m.WallMS {
				t.Errorf("N=%d, serial=%v: fork wait %v ms of a %v ms sweep", nx*nx, serial, w, m.WallMS)
			}
		}
	}
}

// BenchmarkSweepSpinFork is the record behind stepForkMinN: ms per bare
// Sweep (no collector) at U = 4, beta = 4, L = 40, k = 10, with the
// per-slice steps forked and inline, and with every fork serial
// (SerialSpins) for the boundary's own trade, at N = 16, 20, 25, 30, 36
// and 64.
//
//	go test ./internal/update -run NONE -bench SweepSpinFork -cpu 2
func BenchmarkSweepSpinFork(b *testing.B) {
	for _, sz := range [][2]int{{4, 4}, {4, 5}, {5, 5}, {5, 6}, {6, 6}, {8, 8}} {
		for _, mode := range []string{"inline", "forked", "serial"} {
			b.Run(fmt.Sprintf("N=%d/%s", sz[0]*sz[1], mode), func(b *testing.B) {
				p, f := model(b, sz[0], sz[1], 0, 4, 40)
				sw := update.NewSweeper(p, f, rng.New(11), update.Options{ClusterK: 10, PrePivot: true, SerialSpins: mode == "serial"})
				if mode != "serial" {
					sw.SetForkSteps(mode == "forked")
				}
				for i := 0; i < 3; i++ {
					sw.Sweep()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sw.Sweep()
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/sweep")
			})
		}
	}
}
