package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"questgo"
	"questgo/internal/benchutil"
	"questgo/internal/blas"
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/mat"
	"questgo/internal/obs"
	"questgo/internal/rng"
	"questgo/internal/stats"
	"questgo/internal/update"
)

// kernel is one dense kernel of Figures 1 and 4. run factors a copy of a in
// work (or multiplies a*b into it) and returns every pooled buffer, the way
// the sweep calls the kernel.
type kernel struct {
	name  string // series name in BENCH_gemm.json
	flops func(n int) float64
	run   func(a, b, work *mat.Dense)
}

// kernels is in Figure 1's column order; Figure 4 reports the first two.
var kernels = []kernel{
	{"gemm", benchutil.GemmFlops, func(a, b, work *mat.Dense) {
		blas.Gemm(false, false, 1, a, b, 0, work)
	}},
	{"geqrf", benchutil.QRFlops, func(a, _, work *mat.Dense) {
		work.CopyFrom(a)
		lapack.QRFactor(work).Release()
	}},
	// The retained level-2 reference, the DGEQPF-style loop the paper's
	// Figure 1 profiles.
	{"geqp3", benchutil.QRFlops, func(a, _, work *mat.Dense) {
		work.CopyFrom(a)
		qr, jpvt := lapack.QRPFactorLevel2(work)
		qr.Release()
		lapack.PutPivot(&jpvt)
	}},
	// The blocked level-3 panel factorization on the hot path.
	{"geqp3_blocked", benchutil.QRFlops, func(a, _, work *mat.Dense) {
		work.CopyFrom(a)
		qr, jpvt := lapack.QRPFactor(work)
		qr.Release()
		lapack.PutPivot(&jpvt)
	}},
}

// timeKernels returns the seconds per call of each kernel in ks on random
// n x n operands drawn from r.
func timeKernels(ks []kernel, r *rng.Rand, n, reps int) []float64 {
	a, b, work := randomMatrix(r, n), randomMatrix(r, n), mat.New(n, n)
	secs := make([]float64, len(ks))
	for i, k := range ks {
		secs[i] = benchutil.TimeIt(reps, 200*time.Millisecond, func() { k.run(a, b, work) })
	}
	return secs
}

// figure1 is the paper's ordering GEMM > QR >> QRP for the level-2 pivoted
// QR (pivoting serializes on column-norm updates) next to the blocked
// variant that exists to break it: its column should sit close to DGEQRF.
func figure1(p params) {
	kern, mr, nr := blas.Kernel()
	fmt.Println("Figure 1: dense kernel throughput (GFlop/s) vs matrix size")
	fmt.Printf("micro-kernel: %s\n", kern)
	fmt.Println()
	tbl := benchutil.NewTable("N", "DGEMM", "DGEQRF", "QRP-L2", "QRP-BLK", "BLK/L2", "BLK/QR")
	r := rng.New(7)
	for _, n := range p.sizes {
		secs := timeKernels(kernels, r, n, p.reps)
		gf := make([]float64, len(kernels))
		for i, k := range kernels {
			gf[i] = benchutil.GFlops(k.flops(n), secs[i])
			if p.json == "" {
				continue
			}
			// Record.Params is integer-valued: the kernel goes in as its
			// tile, 8x8 / 8x4 / 4x4 for avx512 / avx2 / go.
			rec := benchutil.NewRecord("kernels", k.name, n, secs[i], k.flops(n)).
				WithParam("gomaxprocs", runtime.GOMAXPROCS(0)).
				WithParam("kernel_mr", mr).WithParam("kernel_nr", nr)
			if err := rec.Append(p.json); err != nil {
				fatal(fmt.Errorf("json append: %w", err))
			}
		}
		tbl.AddRow(n,
			fmt.Sprintf("%7.2f", gf[0]),
			fmt.Sprintf("%7.2f", gf[1]),
			fmt.Sprintf("%7.2f", gf[2]),
			fmt.Sprintf("%7.2f", gf[3]),
			fmt.Sprintf("%5.2f", gf[3]/gf[2]),
			fmt.Sprintf("%5.2f", gf[3]/gf[1]))
	}
	tbl.Render(os.Stdout)
	fmt.Println()
	fmt.Println("Expected shape (paper, Westmere 12-core): DGEMM > DGEQRF >> level-2")
	fmt.Println("DGEQP3, with the blocked QRP column recovering most of the DGEQRF")
	fmt.Println("rate (BLK/QR near 1, BLK/L2 well above 1 and growing with N).")
}

// figure2 samples the Algorithm 2 vs Algorithm 3 difference over Green's
// function evaluations from a running simulation. The paper samples 1000
// evaluations on a 16x16 lattice with L = 160 (beta = 32) and finds the
// differences clustered below 1e-12, insensitive to U.
func figure2(p params) {
	dtau := 0.2
	beta := dtau * float64(p.l)
	fmt.Printf("Figure 2: ||G - G~||_F/||G||_F distribution, %dx%d lattice, L=%d (beta=%g), %d evals per U\n\n",
		p.nx, p.nx, p.l, beta, p.evals)
	tbl := benchutil.NewTable("U", "min", "Q1", "median", "Q3", "max")
	for _, u := range p.us {
		s := stats.Summary(sampleDiffs(p, float64(u), beta))
		tbl.AddRow(u,
			fmt.Sprintf("%.2e", s.Min),
			fmt.Sprintf("%.2e", s.Q1),
			fmt.Sprintf("%.2e", s.Median),
			fmt.Sprintf("%.2e", s.Q3),
			fmt.Sprintf("%.2e", s.Max))
	}
	tbl.Render(os.Stdout)
	fmt.Println()
	fmt.Println("Expected shape (paper): medians ~1e-13..1e-12, maxima below ~1e-10,")
	fmt.Println("no systematic dependence on U.")
}

// sampleDiffs runs a short DQMC simulation and, at every cluster boundary
// of every sweep, evaluates G with both stratifications and records the
// relative difference — the same sampling protocol as the paper (the
// configurations come from the real Markov chain, not random fields).
func sampleDiffs(p params, u, beta float64) []float64 {
	r := rng.New(p.seed)
	prop, field := setup(p.nx, u, beta, p.l, r)
	sw := update.NewSweeper(prop, field, r, update.Options{ClusterK: p.k, PrePivot: true})
	var diffs []float64
	for len(diffs) < p.evals {
		sw.Sweep()
		cs := greens.NewClusterSet(prop, field, hubbard.Up, sw.ClusterK())
		for c := 0; c < cs.NC && len(diffs) < p.evals; c++ {
			g2 := cs.GreenAt(c, false)
			g3 := cs.GreenAt(c, true)
			diffs = append(diffs, mat.RelDiff(g3, g2))
		}
	}
	return diffs
}

// figures3and4 compares Algorithm 2 without clustering (the original QUEST
// baseline), Algorithm 2 with clustering, and Algorithm 3 (pre-pivoting)
// with clustering — the paper's method — and sets the last one's rate
// against DGEMM and DGEQRF at the same size: the paper's headline "~70% of
// DGEMM, above DGEQRF".
func figures3and4(p params) {
	fmt.Printf("Figures 3 and 4: Green's function evaluation, L=%d, k=%d\n\n", p.l, p.k)
	t3 := benchutil.NewTable("N", "alg2 (s)", "alg2+cluster (s)", "alg3+cluster (s)", "speedup")
	t4 := benchutil.NewTable("N", "Geval GF/s", "DGEMM GF/s", "DGEQRF GF/s", "Geval/DGEMM")
	for _, n := range p.sizes {
		nx, ok := squareSide(n)
		if !ok {
			continue
		}
		prop, field := setup(nx, 4, 0.1*float64(p.l), p.l, rng.New(11))

		// Unclustered Algorithm 2 over all L slice matrices.
		bs := make([]*mat.Dense, p.l)
		for i := range bs {
			bs[i] = prop.BMatrix(hubbard.Up, field, i)
		}
		alg2Sec := benchutil.TimeIt(p.reps, 300*time.Millisecond, func() {
			greens.GreenQRP(bs)
		})

		// Clustered variants (clusters prebuilt = the recycling case).
		cs := greens.NewClusterSet(prop, field, hubbard.Up, p.k)
		alg2cSec := benchutil.TimeIt(p.reps, 300*time.Millisecond, func() {
			cs.GreenAt(0, false)
		})
		alg3cSec := benchutil.TimeIt(p.reps, 300*time.Millisecond, func() {
			cs.GreenAt(0, true)
		})

		t3.AddRow(n,
			fmt.Sprintf("%.4f", alg2Sec),
			fmt.Sprintf("%.4f", alg2cSec),
			fmt.Sprintf("%.4f", alg3cSec),
			fmt.Sprintf("%.2fx", alg2Sec/alg3cSec))

		// Figure 4 rates at the same N.
		gevalGF := benchutil.GFlops(benchutil.GreensFlops(n, cs.NC), alg3cSec)
		secs := timeKernels(kernels[:2], rng.New(uint64(n)), n, p.reps)
		gemmGF := benchutil.GFlops(benchutil.GemmFlops(n), secs[0])
		qrGF := benchutil.GFlops(benchutil.QRFlops(n), secs[1])
		t4.AddRow(n,
			fmt.Sprintf("%7.2f", gevalGF),
			fmt.Sprintf("%7.2f", gemmGF),
			fmt.Sprintf("%7.2f", qrGF),
			fmt.Sprintf("%5.0f%%", 100*gevalGF/gemmGF))
	}
	fmt.Println("Figure 3: average time per Green's function evaluation")
	t3.Render(os.Stdout)
	fmt.Println()
	fmt.Println("Figure 4: achieved throughput")
	t4.Render(os.Stdout)
	fmt.Println()
	fmt.Println("Expected shape (paper): ~3x speedup from clustering + pre-pivoting;")
	fmt.Println("G evaluation at ~70% of DGEMM and above DGEQRF at large N.")
}

// figure8 times full simulations (time-displaced measurements included:
// QUEST's dynamic bundle is part of the paper's measurement share) against
// the nominal O(N^3) prediction anchored at the smallest size, and prints
// Table I from the same runs. The paper observes better than N^3 scaling
// because the dense kernels become more efficient as the matrices grow.
func figure8(p params) {
	fmt.Printf("Figure 8 + Table I: full DQMC simulation, U=%g, L=%d, %d+%d sweeps\n\n",
		p.u, p.l, p.warm, p.meas)

	fig8 := benchutil.NewTable("N", "time (s)", "nominal N^3 (s)", "ratio")
	header := fmt.Sprintf("%-24s", "Phase")
	var docs []*obs.Metrics
	var baseTime float64
	var baseN int
	for _, n := range p.sizes {
		nx, ok := squareSide(n)
		if !ok {
			continue
		}
		cfg := questgo.DefaultConfig()
		cfg.Nx, cfg.Ny, cfg.U = nx, nx, p.u
		cfg.Beta, cfg.L = 0.125*float64(p.l), p.l
		cfg.WarmSweeps, cfg.MeasSweeps = p.warm, p.meas
		cfg.MeasureDynamics = true
		res, err := questgo.Run(context.Background(), cfg)
		if err != nil {
			fatal(err)
		}
		// The instrumented wall time of the run itself (setup excluded) —
		// the same clock the Table-I percentages are computed from.
		elapsed := res.Metrics.WallMS / 1e3
		if baseTime == 0 {
			baseTime, baseN = elapsed, n
		}
		nominal := baseTime * math.Pow(float64(n)/float64(baseN), 3)
		fig8.AddRow(n,
			fmt.Sprintf("%.2f", elapsed),
			fmt.Sprintf("%.2f", nominal),
			fmt.Sprintf("%.2f", elapsed/nominal))
		docs = append(docs, res.Metrics)
		header += fmt.Sprintf(" %7s", fmt.Sprintf("N=%d", n))
	}
	fmt.Println("Figure 8: total simulation time vs N (nominal anchored at the smallest size)")
	fig8.Render(os.Stdout)
	fmt.Println()
	fmt.Println("Expected shape (paper): measured/nominal ratio below 1 at large N")
	fmt.Println("(cache/parallel efficiency of the dense kernels improves with size).")
	fmt.Println()

	fmt.Println("Table I: execution-time percentage of each phase")
	fmt.Println(header)
	fmt.Println(obs.Table(docs...))
	fmt.Println("Expected shape (paper, Table I): stratification largest (~45%),")
	fmt.Println("measurements ~18-20%, delayed update ~14-17%, clustering and")
	fmt.Println("wrapping ~8-12% each.")
}
