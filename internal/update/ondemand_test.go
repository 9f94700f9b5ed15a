package update_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"questgo/internal/blas"
	"questgo/internal/gpu"
	"questgo/internal/obs"
	"questgo/internal/rng"
	"questgo/internal/update"
)

// onDemandRun sweeps a fresh chain on either delayed-update path and returns
// what it leaves behind.
func onDemandRun(t testing.TB, nx, nd int, engine string, onDemand, serial bool) *chainRun {
	const sweeps, l, k = 2, 4, 2
	p, f := model(t, nx, nx, 0.3, 4, l)
	mk, group := update.NewHost, (*gpu.Group)(nil)
	if engine != "host" {
		group = gpu.NewGroup(2)
		mk = gpu.NewBackend(group, true)
	}
	col := obs.New()
	sw := update.NewSweeperOn(p, f, rng.New(17), update.Options{
		ClusterK: k, Delay: nd, PrePivot: true, SerialSpins: serial, Obs: col, StabilityEvery: 3,
	}, mk)
	sw.SetOnDemand(onDemand)
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
	return got
}

// TestOnDemandMatchesEager: building the pending rank-1 pairs on demand
// (site rows in the Metropolis loop, the fill at the flush) moves no bit.
// At N = 64 and 144, with delay blocks of 1, 2, 8 and 32 (so blocks flush
// in mid-slice, down to every accepted flip), off half filling (μ = 0.3,
// where the sign flips), on the host and on two devices with command
// graphs, forked at GOMAXPROCS 1, 2 and 4 and under SerialSpins, the
// on-demand chain's field, Green's functions, sign, counters, drift,
// metrics minus timings and device clocks equal the eager push's at
// GOMAXPROCS 1.
func TestOnDemandMatchesEager(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, nx := range []int{8, 12} {
		for _, nd := range []int{1, 2, 8, 32} {
			for _, engine := range []string{"host", "2 devices + graphs"} {
				runtime.GOMAXPROCS(1)
				ref := onDemandRun(t, nx, nd, engine, false, false)
				if ref.metrics.Ops.DelayedFlushes == 0 || ref.accepted == 0 {
					t.Fatalf("N=%d delay %d, %s: no flips or flushes; the run went untested", nx*nx, nd, engine)
				}
				for _, mode := range []struct {
					procs  int
					serial bool
				}{{1, false}, {2, false}, {4, false}, {2, true}} {
					runtime.GOMAXPROCS(mode.procs)
					got := onDemandRun(t, nx, nd, engine, true, mode.serial)
					if d := got.diff(ref); d != "" {
						t.Errorf("N=%d delay %d, %s, GOMAXPROCS=%d, serial=%v: on demand against eager: %s",
							nx*nx, nd, engine, mode.procs, mode.serial, d)
					}
				}
			}
		}
	}
}

// TestOnDemandGate: a sweeper takes the on-demand path exactly from
// OnDemandMinN sites up, with delay blocks blas.NewDelaySector holds, and
// only where the blas delay kernels are vectorized; every other family
// keeps the eager push.
func TestOnDemandGate(t *testing.T) {
	for _, c := range []struct{ nx, nd int }{{8, 8}, {10, 8}, {12, 16}, {12, blas.DelayRowsMax + 1}} {
		p, f := model(t, c.nx, c.nx, 0, 4, 4)
		sw := update.NewSweeperOn(p, f, rng.New(17), update.Options{ClusterK: 2, Delay: c.nd, PrePivot: true}, update.NewHost)
		want := c.nx*c.nx >= update.OnDemandMinN && c.nd <= blas.DelayRowsMax && blas.DelayVectorized()
		if got := sw.OnDemand(); got != want {
			t.Errorf("%dx%d, delay %d, vectorized %v: on demand %v, want %v", c.nx, c.nx, c.nd, blas.DelayVectorized(), got, want)
		}
	}
}

// BenchmarkSweepOnDemand is the record behind onDemandMinN: ms per bare
// Sweep (no collector) at U = 4, beta = 4, L = 40, k = 10, delay 32, with
// the eager push and with site rows on demand, at N = 36, 49, 64, 100 and
// 144.
//
//	go test ./internal/update -run NONE -bench SweepOnDemand -cpu 2
func BenchmarkSweepOnDemand(b *testing.B) {
	for _, nx := range []int{6, 7, 8, 10, 12} {
		for _, mode := range []string{"eager", "on demand"} {
			b.Run(fmt.Sprintf("N=%d/%s", nx*nx, mode), func(b *testing.B) {
				p, f := model(b, nx, nx, 0, 4, 40)
				sw := update.NewSweeper(p, f, rng.New(11), update.Options{ClusterK: 10, PrePivot: true})
				sw.SetOnDemand(mode == "on demand")
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
