// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (see DESIGN.md for the index and EXPERIMENTS.md for
// recorded results). The cmd/ tools regenerate the full figures with
// parameter sweeps; these benchmarks pin each figure's kernel to a
// reproducible `go test -bench` target and report the figure's metric
// (GFlop/s, seconds per evaluation, relative error, phase percentages) via
// b.ReportMetric.
//
// Sizes are scaled down from the paper's 256..1024 so the whole suite runs
// in minutes on one core; pass -bench regexps to run individual figures at
// larger sizes via the cmd/ tools instead.
package questgo

import (
	"fmt"
	"runtime"
	"testing"

	"questgo/internal/benchutil"
	"questgo/internal/blas"
	"questgo/internal/gpu"
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/measure"
	"questgo/internal/obs"
	"questgo/internal/profile"
	"questgo/internal/rng"
	"questgo/internal/stats"
	"questgo/internal/update"
)

var benchSizes = []int{128, 256, 512}

func randomMatrix(seed uint64, n int) *mat.Dense {
	r := rng.New(seed)
	m := mat.New(n, n)
	for j := 0; j < n; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 2*r.Float64() - 1
		}
	}
	return m
}

func benchSetup(b *testing.B, nx int, u, beta float64, l int) (*hubbard.Propagator, *hubbard.Field) {
	b.Helper()
	lat := lattice.NewSquare(nx, nx, 1)
	model, err := hubbard.NewModel(lat, u, 0, beta, l)
	if err != nil {
		b.Fatal(err)
	}
	prop := hubbard.NewPropagator(model)
	field := hubbard.NewRandomField(l, model.N(), rng.New(9))
	return prop, field
}

// ---------------------------------------------------------------- Figure 1

func BenchmarkFig01_DGEMM(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			a := randomMatrix(1, n)
			bb := randomMatrix(2, n)
			c := mat.New(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blas.Gemm(false, false, 1, a, bb, 0, c)
			}
			reportGFlops(b, benchutil.GemmFlops(n))
		})
	}
}

// BenchmarkGemmKernel is the dense-kernel headline series: packed GEMM
// throughput at the paper's full size range (the figure-1 benchmark above
// uses the scaled-down default sizes). reproduce.sh records the same series
// to BENCH_gemm.json through cmd/kernels -json.
func BenchmarkGemmKernel(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			a := randomMatrix(1, n)
			bb := randomMatrix(2, n)
			c := mat.New(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blas.Gemm(false, false, 1, a, bb, 0, c)
			}
			reportGFlops(b, benchutil.GemmFlops(n))
		})
	}
}

// BenchmarkGemmParallelScaling reports the worker-pool scaling of the packed
// kernel: the same product run with GOMAXPROCS 1, 4, and all cores (the
// paper's Figure 1 spans 1..12 Westmere cores the same way). On a
// single-core host the three series coincide.
func BenchmarkGemmParallelScaling(b *testing.B) {
	n := 512
	a := randomMatrix(1, n)
	bb := randomMatrix(2, n)
	c := mat.New(n, n)
	procs := []int{1, 4, runtime.NumCPU()}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, p := range procs {
		b.Run(fmt.Sprintf("procs=%d", p), func(b *testing.B) {
			runtime.GOMAXPROCS(p)
			defer runtime.GOMAXPROCS(old)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blas.Gemm(false, false, 1, a, bb, 0, c)
			}
			reportGFlops(b, benchutil.GemmFlops(n))
		})
	}
}

func BenchmarkFig01_DGEQRF(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			a := randomMatrix(3, n)
			work := a.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(a)
				qr := lapack.QRFactor(work)
				qr.Release()
			}
			reportGFlops(b, benchutil.QRFlops(n))
		})
	}
}

func BenchmarkFig01_DGEQP3(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			a := randomMatrix(4, n)
			work := a.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(a)
				qr, jpvt := lapack.QRPFactor(work)
				qr.Release()
				lapack.PutPivot(&jpvt)
			}
			reportGFlops(b, benchutil.QRFlops(n))
		})
	}
}

// BenchmarkFig01_DGEQP3Level2 measures the retained level-2 pivoted QR —
// the kernel the paper's Figure 1 actually profiles, and the baseline the
// blocked QRPFactor is gated against in cmd/kernels -qrpgate.
func BenchmarkFig01_DGEQP3Level2(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			a := randomMatrix(4, n)
			work := a.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.CopyFrom(a)
				qr, jpvt := lapack.QRPFactorLevel2(work)
				qr.Release()
				lapack.PutPivot(&jpvt)
			}
			reportGFlops(b, benchutil.QRFlops(n))
		})
	}
}

// ---------------------------------------------------------------- Figure 2

// BenchmarkFig02_AccuracyAlg3VsAlg2 measures the cost of the paired
// evaluation and reports the figure's metric: the median relative
// difference between Algorithm 2 and Algorithm 3 Green's functions over
// the sampled configurations.
func BenchmarkFig02_AccuracyAlg3VsAlg2(b *testing.B) {
	for _, u := range []float64{2, 8} {
		b.Run(fmt.Sprintf("U=%g", u), func(b *testing.B) {
			prop, field := benchSetup(b, 6, u, 8, 40)
			cs := greens.NewClusterSet(prop, field, hubbard.Up, 10)
			var diffs []float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := i % cs.NC
				g2 := cs.GreenAt(c, false)
				g3 := cs.GreenAt(c, true)
				diffs = append(diffs, mat.RelDiff(g3, g2))
			}
			b.StopTimer()
			s := stats.Summary(diffs)
			// Reported in units of 1e-12 so the metric is legible in the
			// fixed-point benchmark output (paper: medians ~1 in these units).
			b.ReportMetric(s.Median*1e12, "median-reldiff-e12")
			b.ReportMetric(s.Max*1e12, "max-reldiff-e12")
		})
	}
}

// ------------------------------------------------------- Figures 3 and 4

func BenchmarkFig03_GreensAlg2Unclustered(b *testing.B) {
	benchGreens(b, func(prop *hubbard.Propagator, field *hubbard.Field, n int) func() {
		bs := make([]*mat.Dense, prop.Model.L)
		for i := range bs {
			bs[i] = prop.BMatrix(hubbard.Up, field, i)
		}
		return func() { greens.GreenQRP(bs) }
	})
}

func BenchmarkFig03_GreensAlg2Clustered(b *testing.B) {
	benchGreens(b, func(prop *hubbard.Propagator, field *hubbard.Field, n int) func() {
		cs := greens.NewClusterSet(prop, field, hubbard.Up, 10)
		return func() { cs.GreenAt(0, false) }
	})
}

func BenchmarkFig03_GreensAlg3Clustered(b *testing.B) {
	benchGreens(b, func(prop *hubbard.Propagator, field *hubbard.Field, n int) func() {
		cs := greens.NewClusterSet(prop, field, hubbard.Up, 10)
		return func() { cs.GreenAt(0, true) }
	})
}

func benchGreens(b *testing.B, mk func(*hubbard.Propagator, *hubbard.Field, int) func()) {
	for _, nx := range []int{6, 8, 10} {
		n := nx * nx
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			prop, field := benchSetup(b, nx, 4, 4, 40)
			fn := mk(prop, field, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn()
			}
			reportGFlops(b, benchutil.GreensFlops(n, 4))
		})
	}
}

// BenchmarkFig04_GEvalVsDGEMM reports the headline ratio of Figure 4: the
// Green's function evaluation rate as a fraction of DGEMM at the same N.
func BenchmarkFig04_GEvalVsDGEMM(b *testing.B) {
	nx := 10
	n := nx * nx
	prop, field := benchSetup(b, nx, 4, 4, 40)
	cs := greens.NewClusterSet(prop, field, hubbard.Up, 10)
	a := randomMatrix(5, n)
	bb := randomMatrix(6, n)
	c := mat.New(n, n)
	gemmSec := benchutil.TimeIt(3, 0, func() { blas.Gemm(false, false, 1, a, bb, 0, c) })
	gemmGF := benchutil.GFlops(benchutil.GemmFlops(n), gemmSec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.GreenAt(0, true)
	}
	b.StopTimer()
	gevalGF := benchutil.GFlops(benchutil.GreensFlops(n, cs.NC), b.Elapsed().Seconds()/float64(b.N))
	b.ReportMetric(gevalGF, "geval-GF/s")
	b.ReportMetric(gemmGF, "dgemm-GF/s")
	b.ReportMetric(100*gevalGF/gemmGF, "%of-dgemm")
}

// --------------------------------------------------- Figures 5, 6 and 7

// BenchmarkFig05_MomentumDistribution times one sweep + <n_k> measurement
// on the Figure 5 workload (U = 2, half filling).
func BenchmarkFig05_MomentumDistribution(b *testing.B) {
	prop, field := benchSetup(b, 8, 2, 4, 20)
	sw := update.NewSweeper(prop, field, rng.New(3), update.Options{ClusterK: 10})
	lat := prop.Model.Lat
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Sweep()
		et := measurePkg(lat, sw)
		_ = et.MomentumDistribution()
	}
}

// BenchmarkFig06_NkGrid times the full-grid Fourier transform that builds
// the Figure 6 contour data.
func BenchmarkFig06_NkGrid(b *testing.B) {
	prop, field := benchSetup(b, 12, 2, 4, 20)
	sw := update.NewSweeper(prop, field, rng.New(3), update.Options{ClusterK: 10})
	sw.Sweep()
	lat := prop.Model.Lat
	et := measurePkg(lat, sw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = et.MomentumDistribution()
	}
}

// BenchmarkFig07_SpinCorrelation times one sweep + C_zz(r) + S(pi,pi)
// measurement on the Figure 7 workload.
func BenchmarkFig07_SpinCorrelation(b *testing.B) {
	prop, field := benchSetup(b, 8, 2, 4, 20)
	sw := update.NewSweeper(prop, field, rng.New(4), update.Options{ClusterK: 10})
	lat := prop.Model.Lat
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Sweep()
		et := measurePkg(lat, sw)
		b.ReportMetric(et.AFStructureFactor(), "S(pi,pi)")
	}
}

// ---------------------------------------------------------------- Figure 8

// BenchmarkFig08_FullSweep times one complete DQMC sweep (wrapping,
// updates, clustering, stratification) at several N; the per-size
// sec/op column is the Figure 8 series.
func BenchmarkFig08_FullSweep(b *testing.B) {
	for _, nx := range []int{4, 6, 8, 10} {
		b.Run(fmt.Sprintf("N=%d", nx*nx), func(b *testing.B) {
			prop, field := benchSetup(b, nx, 2, 3, 24)
			sw := update.NewSweeper(prop, field, rng.New(5), update.Options{ClusterK: 8})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.Sweep()
			}
		})
	}
}

// ---------------------------------------------------------------- Table I

// BenchmarkTableI_PhaseProfile runs sweeps under the metrics collector and
// reports each Table I row as a metric (percent of total time).
func BenchmarkTableI_PhaseProfile(b *testing.B) {
	prop, field := benchSetup(b, 8, 2, 3, 24)
	col := obs.New()
	sw := update.NewSweeper(prop, field, rng.New(6), update.Options{ClusterK: 8, Obs: col})
	lat := prop.Model.Lat
	col.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Sweep()
		mstart := col.Begin()
		measurePkg(lat, sw)
		col.End(obs.PhaseMeasure, mstart)
	}
	b.StopTimer()
	pc := profile.FromPhases(col.PhaseDurations()).Percentages()
	b.ReportMetric(pc[profile.DelayedUpdate], "%delayed")
	b.ReportMetric(pc[profile.Stratification], "%stratify")
	b.ReportMetric(pc[profile.Clustering], "%cluster")
	b.ReportMetric(pc[profile.Wrapping], "%wrap")
	b.ReportMetric(pc[profile.Measurement], "%measure")
}

// ---------------------------------------------------- Figures 9 and 10

// BenchmarkFig09_GPUCluster reports the simulated-device throughput of
// matrix clustering (Algorithm 4); wall time per op is the host cost of
// driving the simulated device.
func BenchmarkFig09_GPUCluster(b *testing.B) {
	for _, nx := range []int{8, 16} {
		n := nx * nx
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			prop, field := benchSetup(b, nx, 4, 2, 20)
			dev := gpu.NewDevice(gpu.TeslaC2050())
			acc := gpu.NewAccelerator(dev, prop, 32, false)
			dst := mat.New(n, n)
			dev.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.Cluster(dst, field, hubbard.Up, 0, 10)
			}
			b.StopTimer()
			b.ReportMetric(dev.GFlopsRate(), "modeled-GF/s")
		})
	}
}

// BenchmarkFig09_GPUWrap reports the simulated-device throughput of
// Green's function wrapping (Algorithm 6).
func BenchmarkFig09_GPUWrap(b *testing.B) {
	for _, nx := range []int{8, 16} {
		n := nx * nx
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			prop, field := benchSetup(b, nx, 4, 2, 20)
			dev := gpu.NewDevice(gpu.TeslaC2050())
			acc := gpu.NewAccelerator(dev, prop, 32, false)
			g := randomMatrix(8, n)
			dev.Reset()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.Wrap(g, field, hubbard.Up, 0)
			}
			b.StopTimer()
			b.ReportMetric(dev.GFlopsRate(), "modeled-GF/s")
		})
	}
}

// BenchmarkFig10_HybridGreens times the hybrid evaluation: device-built
// clusters, host pre-pivoted stratification. The metric combines real host
// time with modeled device time, as in cmd/gpubench.
func BenchmarkFig10_HybridGreens(b *testing.B) {
	nx := 8
	n := nx * nx
	prop, field := benchSetup(b, nx, 4, 4, 40)
	dev := gpu.NewDevice(gpu.TeslaC2050())
	acc := gpu.NewAccelerator(dev, prop, 32, false)
	cs := greens.NewClusterSetWith(prop, field, hubbard.Up, 10, acc.Cluster)
	dev.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Recompute(field, i%cs.NC)
		cs.GreenAt(i%cs.NC, true)
	}
	b.StopTimer()
	total := (b.Elapsed() - dev.RealTime() + dev.Clock()).Seconds()
	flops := float64(b.N) * (benchutil.GreensFlops(n, cs.NC) + benchutil.ClusterFlops(n, 10))
	b.ReportMetric(benchutil.GFlops(flops, total), "hybrid-GF/s")
}

// ------------------------------------------------------------- helpers

func reportGFlops(b *testing.B, flopsPerOp float64) {
	secPerOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(benchutil.GFlops(flopsPerOp, secPerOp), "GF/s")
}

func measurePkg(lat *lattice.Lattice, sw *update.Sweeper) *measure.EqualTime {
	return measure.Measure(lat, sw.GreenUp(), sw.GreenDn(), sw.Sign())
}

// ------------------------------------------- Section VII future work

// BenchmarkFutureWork_HybridSweeper runs the complete device-offloaded
// Metropolis sweep (wrapping, clustering and delayed-update flushes on the
// simulated device, stratification on the host) — the part of the paper's
// Section VII projection the production path implements.
func BenchmarkFutureWork_HybridSweeper(b *testing.B) {
	prop, field := benchSetup(b, 8, 4, 2, 20)
	dev := gpu.NewDevice(gpu.TeslaC2050())
	sw := update.NewSweeperOn(prop, field, rng.New(15), update.Options{ClusterK: 10, PrePivot: true},
		gpu.NewBackend(gpu.GroupOf(dev), false))
	dev.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Sweep()
	}
	b.StopTimer()
	b.ReportMetric(dev.GFlopsRate(), "modeled-GF/s")
	b.ReportMetric(float64(dev.Transferred())/float64(b.N)/1e6, "MB-transferred/sweep")
}
