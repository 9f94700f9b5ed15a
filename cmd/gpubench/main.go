// Command gpubench regenerates the paper's Figures 9 and 10 on the
// *simulated* GPU device (see internal/gpu: arithmetic is executed on the
// host, the clock follows a Tesla-C2050-calibrated cost model; the figures'
// phenomena are transfer-amortization effects that the model reproduces).
//
//	-fig=9   modeled GFlop/s of matrix clustering (Algorithm 4) and
//	         wrapping (Algorithm 6) vs N, against device DGEMM.
//	-fig=10  modeled GFlop/s of the hybrid Green's function evaluation
//	         (device clusters + host pre-pivoted stratification) vs N.
//
// Beyond the paper's figures, -devseries runs the device-scaling series:
// command-graph launch-overhead amortization at N=256 (graphs off vs on)
// and full Metropolis sweeps of independent Markov chains sharded over 1,
// 2 and 4 simulated devices, each with graphs off and on. -gpugate runs
// the same series and fails the process unless graph replay cuts the
// modeled launch overhead by at least 1.5x at N=256, the 2-device modeled
// speedup on chain sharding reaches 1.6x, and every configuration
// produces the bitwise-identical physical trajectory.
//
// Usage:
//
//	gpubench [-fig 9] [-sizes 64,144,256,576,1024] [-k 10] [-l 160]
//	         [-json BENCH_gpu.json]
//	gpubench -devseries [-json BENCH_gpu.json]
//	gpubench -gpugate   [-json BENCH_gpu.json]
//
// With -json, one benchutil.Record JSON line per measured series and size
// is appended to the named file.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"questgo/internal/benchutil"
	"questgo/internal/gpu"
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
	"questgo/internal/update"
)

// delay sizes the accelerators' flush operands: update's default block.
const delay = 32

func main() {
	fig := flag.Int("fig", 9, "figure to regenerate (9 or 10)")
	sizesFlag := flag.String("sizes", "64,144,256,576,1024", "site counts (perfect squares)")
	k := flag.Int("k", 10, "matrix clustering size")
	l := flag.Int("l", 160, "time slices (figure 10)")
	jsonPath := flag.String("json", "", "append one JSON line per series and size to this file")
	devSeries := flag.Bool("devseries", false, "run the 1/2/4-device and command-graph series")
	gate := flag.Bool("gpugate", false, "run -devseries and fail unless graph amortization >= 1.5x, 2-device speedup >= 1.6x, and trajectories are device-invariant")
	flag.Parse()

	if *devSeries || *gate {
		deviceSeries(*jsonPath, *gate)
		return
	}

	sizes, err := benchutil.ParseSizes(*sizesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	switch *fig {
	case 9:
		figure9(sizes, *k, *jsonPath)
	case 10:
		figure10(sizes, *k, *l, *jsonPath)
	default:
		fmt.Fprintf(os.Stderr, "gpubench: unknown figure %d\n", *fig)
		os.Exit(1)
	}
}

// emit appends one unified bench record, exiting on write failure.
func emit(path, name string, n, k int, secs, flops float64) {
	if path == "" {
		return
	}
	rec := benchutil.NewRecord("gpubench", name, n, secs, flops).WithParam("k", k)
	if err := rec.Append(path); err != nil {
		fmt.Fprintln(os.Stderr, "gpubench: json append:", err)
		os.Exit(1)
	}
}

func setup(n, l int, seed uint64) (*hubbard.Propagator, *hubbard.Field, int) {
	nx := int(math.Round(math.Sqrt(float64(n))))
	if nx*nx != n {
		return nil, nil, 0
	}
	lat := lattice.NewSquare(nx, nx, 1)
	model, err := hubbard.NewModel(lat, 4, 0, 0.1*float64(l), l)
	if err != nil {
		panic(err)
	}
	prop := hubbard.NewPropagator(model)
	field := hubbard.NewRandomField(l, n, rng.New(seed))
	return prop, field, nx
}

func figure9(sizes []int, k int, jsonPath string) {
	fmt.Printf("Figure 9: simulated-GPU clustering (Alg 4) and wrapping (Alg 6), k=%d\n\n", k)
	tbl := benchutil.NewTable("N", "cluster GF/s", "wrap GF/s", "device DGEMM GF/s")
	for _, n := range sizes {
		prop, field, nx := setup(n, 2*k, uint64(n))
		if prop == nil {
			fmt.Fprintf(os.Stderr, "skipping N=%d (not a perfect square)\n", n)
			continue
		}
		_ = nx
		dev := gpu.NewDevice(gpu.TeslaC2050())
		acc := gpu.NewAccelerator(dev, prop, delay, false)

		dev.Reset() // exclude the one-time B/B^{-1} upload, as the paper does
		dst := mat.New(n, n)
		acc.Cluster(dst, field, hubbard.Up, 0, k)
		clusterGF := dev.GFlopsRate()
		emit(jsonPath, "cluster", n, k, dev.Clock().Seconds(), float64(dev.Flops()))

		dev.Reset()
		g := randomMatrix(n)
		acc.Wrap(g, field, hubbard.Up, 0)
		wrapGF := dev.GFlopsRate()
		emit(jsonPath, "wrap", n, k, dev.Clock().Seconds(), float64(dev.Flops()))

		// Pure device DGEMM rate at this size including one matrix
		// round trip (the CUBLAS-call-with-transfer comparison point).
		dev.Reset()
		da := dev.Malloc(n, n)
		db := dev.Malloc(n, n)
		dc := dev.Malloc(n, n)
		st := dev.NewStream()
		st.SetMatrix(da, g)
		st.SetMatrix(db, g)
		st.Dgemm(false, false, 1, da, db, 0, dc)
		st.GetMatrix(g, dc)
		gemmGF := dev.GFlopsRate()
		emit(jsonPath, "device-gemm", n, k, dev.Clock().Seconds(), float64(dev.Flops()))

		tbl.AddRow(n,
			fmt.Sprintf("%7.1f", clusterGF),
			fmt.Sprintf("%7.1f", wrapGF),
			fmt.Sprintf("%7.1f", gemmGF))
	}
	tbl.Render(os.Stdout)
	fmt.Println()
	fmt.Println("Expected shape (paper): clustering approaches device DGEMM rate")
	fmt.Println("(k GEMMs per result transfer); wrapping is transfer-bound and lower,")
	fmt.Println("but both rise with N.")
}

func figure10(sizes []int, k, l int, jsonPath string) {
	fmt.Printf("Figure 10: hybrid CPU+GPU Green's function evaluation, L=%d, k=%d\n\n", l, k)
	fmt.Println("(clusters built on the simulated device; stratification with")
	fmt.Println("pre-pivoting on the host; rate = flops / (host time + modeled device time))")
	fmt.Println()
	tbl := benchutil.NewTable("N", "hybrid GF/s", "CPU-only GF/s")
	for _, n := range sizes {
		prop, field, _ := setup(n, l, uint64(n)+1)
		if prop == nil {
			fmt.Fprintf(os.Stderr, "skipping N=%d (not a perfect square)\n", n)
			continue
		}
		dev := gpu.NewDevice(gpu.TeslaC2050())
		acc := gpu.NewAccelerator(dev, prop, delay, false)
		gcs := greens.NewClusterSetWith(prop, field, hubbard.Up, k, acc.Cluster)
		nc := gcs.NC

		// Hybrid: rebuild one cluster on the device (the recycling cost of
		// a sweep step) and evaluate G on the host.
		dev.Reset()
		start := time.Now()
		gcs.Recompute(field, 0)
		gcs.GreenAt(0, true)
		// Host wall time minus the host cost of *executing* the simulated
		// kernels (that execution stands in for the device's work, whose
		// cost is the modeled clock).
		hostSec := (time.Since(start) - dev.RealTime()).Seconds()
		hybridSec := hostSec + dev.Clock().Seconds()
		flops := benchutil.GreensFlops(n, nc) + benchutil.ClusterFlops(n, k)
		hybridGF := benchutil.GFlops(flops, hybridSec)
		emit(jsonPath, "hybrid", n, k, hybridSec, flops)

		// CPU only: the same work entirely on the host (cluster set built
		// outside the timed region, matching the hybrid measurement).
		cpuCS := greens.NewClusterSet(prop, field, hubbard.Up, k)
		startCPU := time.Now()
		cpuCS.Recompute(field, 0)
		cpuCS.GreenAt(0, true)
		cpuSec := time.Since(startCPU).Seconds()
		cpuGF := benchutil.GFlops(flops, cpuSec)
		emit(jsonPath, "cpu", n, k, cpuSec, flops)

		tbl.AddRow(n,
			fmt.Sprintf("%7.2f", hybridGF),
			fmt.Sprintf("%7.2f", cpuGF))
	}
	tbl.Render(os.Stdout)
	fmt.Println()
	fmt.Println("Expected shape (paper): hybrid rate above CPU-only and growing")
	fmt.Println("with N as the device GEMMs dominate the offloaded fraction.")
}

// --- device-scaling series (-devseries / -gpugate) ----------------------

// deviceSeries runs the scale-out experiments: graph launch amortization
// at N=256, then independent-chain sweeps over 1, 2 and 4 devices with
// command graphs off and on. With gate set, the process fails unless the
// modeled-performance thresholds hold and the physics is invariant.
func deviceSeries(jsonPath string, gate bool) {
	okGraph := graphSeries(jsonPath)
	okChain := chainSeries(jsonPath)
	if gate {
		if !okGraph || !okChain {
			fmt.Fprintln(os.Stderr, "gpubench: -gpugate FAILED")
			os.Exit(1)
		}
		fmt.Println("gpubench: -gpugate passed (graph amortization, 2-device speedup, trajectory invariance)")
	}
}

// graphSeries measures the modeled launch overhead of a sweep's wrap and
// cluster launch sequences at N=256, issued per kernel versus replayed
// from captured command graphs. Replay charges one launch for the whole
// recorded sequence, so the overhead must drop by well over the gated
// 1.5x (one 5us launch replaces ~3 launches + 3 transfer latencies per
// wrap and ~30 per cluster build).
func graphSeries(jsonPath string) bool {
	const n, l, k, wraps = 256, 20, 10, 12
	run := func(graphs bool) (launchUS, secs, flops float64) {
		prop, field, _ := setup(n, l, uint64(n))
		dev := gpu.NewDevice(gpu.TeslaC2050())
		acc := gpu.NewAccelerator(dev, prop, delay, graphs)
		g := randomMatrix(n)
		c0, c1 := mat.New(n, n), mat.New(n, n)
		dev.Reset() // exclude the one-time B/B^{-1} upload, as the paper does
		for w := 0; w < wraps; w++ {
			acc.Wrap(g, field, hubbard.Up, w%l)
		}
		acc.Cluster(c0, field, hubbard.Up, 0, k)
		acc.Cluster(c1, field, hubbard.Up, k, k)
		return float64(dev.LaunchOverhead()) / 1e3, dev.Clock().Seconds(), dev.Flops()
	}

	offUS, offSecs, offFlops := run(false)
	onUS, onSecs, onFlops := run(true)
	ratio := offUS / onUS

	fmt.Printf("Command-graph launch amortization, N=%d (%d wraps + 2 clusters, k=%d)\n\n", n, wraps, k)
	tbl := benchutil.NewTable("graphs", "launch us", "modeled ms", "launch ratio")
	tbl.AddRow("off", fmt.Sprintf("%8.1f", offUS), fmt.Sprintf("%8.3f", offSecs*1e3), "")
	tbl.AddRow("on", fmt.Sprintf("%8.1f", onUS), fmt.Sprintf("%8.3f", onSecs*1e3), fmt.Sprintf("%6.1fx", ratio))
	tbl.Render(os.Stdout)
	fmt.Println()

	if jsonPath != "" {
		off := benchutil.NewRecord("gpubench", "graph-launch", n, offSecs, offFlops).
			WithParam("k", k).WithParam("devices", 1).WithParam("graphs", 0).
			WithFloatParam("launch_us", offUS)
		on := benchutil.NewRecord("gpubench", "graph-launch", n, onSecs, onFlops).
			WithParam("k", k).WithParam("devices", 1).WithParam("graphs", 1).
			WithFloatParam("launch_us", onUS).WithFloatParam("launch_ratio", ratio)
		for _, rec := range []benchutil.Record{off, on} {
			if err := rec.Append(jsonPath); err != nil {
				fmt.Fprintln(os.Stderr, "gpubench: json append:", err)
				os.Exit(1)
			}
		}
	}

	ok := ratio >= 1.5
	if !ok {
		fmt.Fprintf(os.Stderr, "gpubench: graph replay launch ratio %.2fx < 1.5x at N=%d\n", ratio, n)
	}
	return ok
}

// chainSeries sweeps independent Markov chains sharded over 1, 2 and 4
// simulated devices (chain c on device c mod devices), graphs off and on. The
// modeled group clock must shrink as devices absorb chains — the gate
// requires >= 1.6x at 2 devices — while the trajectories (auxiliary field
// plus both Green's functions) stay bitwise identical in every
// configuration: sharding and graphs move modeled time, never numbers.
func chainSeries(jsonPath string) bool {
	const n, l, k, chains = 64, 40, 10, 4
	type result struct {
		secs, flops, sig float64
	}
	run := func(nd int, graphs bool) result {
		grp := gpu.NewGroup(nd, gpu.TeslaC2050())
		var flops, sig float64
		for c := 0; c < chains; c++ {
			prop, field, _ := setup(n, l, uint64(1000+c))
			sw := update.NewSweeperOn(prop, field, rng.New(uint64(77+c)),
				update.Options{ClusterK: k, PrePivot: true},
				gpu.NewBackend(gpu.GroupOf(grp.Devs[c%nd]), graphs))
			sw.Sweep()
			sig += fieldSum(field) + matSum(sw.GreenUp()) + matSum(sw.GreenDn())
		}
		for _, d := range grp.Devs {
			flops += d.Flops()
		}
		return result{secs: grp.Clock().Seconds(), flops: flops, sig: sig}
	}

	fmt.Printf("Independent-chain sharding, N=%d, L=%d, %d chains, 1 sweep each\n\n", n, l, chains)
	tbl := benchutil.NewTable("devices", "graphs", "modeled ms", "speedup")
	results := map[[2]int]result{}
	var base result
	ok := true
	for _, graphs := range []bool{false, true} {
		for _, nd := range []int{1, 2, 4} {
			res := run(nd, graphs)
			gi := 0
			if graphs {
				gi = 1
			}
			results[[2]int{nd, gi}] = res
			if nd == 1 {
				base = res
			}
			speedup := base.secs / res.secs
			tbl.AddRow(nd, map[bool]string{false: "off", true: "on"}[graphs],
				fmt.Sprintf("%8.3f", res.secs*1e3), fmt.Sprintf("%5.2fx", speedup))
			if jsonPath != "" {
				rec := benchutil.NewRecord("gpubench", "chain-sweep", n, res.secs, res.flops).
					WithParam("k", k).WithParam("devices", nd).WithParam("graphs", gi).
					WithParam("chains", chains).WithFloatParam("speedup", speedup)
				if err := rec.Append(jsonPath); err != nil {
					fmt.Fprintln(os.Stderr, "gpubench: json append:", err)
					os.Exit(1)
				}
			}
		}
	}
	tbl.Render(os.Stdout)
	fmt.Println()

	// Gate 1: modeled 2-device speedup on the ungraphed series.
	speedup2 := results[[2]int{1, 0}].secs / results[[2]int{2, 0}].secs
	if speedup2 < 1.6 {
		fmt.Fprintf(os.Stderr, "gpubench: 2-device chain-sharding speedup %.2fx < 1.6x\n", speedup2)
		ok = false
	}
	// Gate 2: every configuration walked the identical Markov chains.
	// Walk the same device/graph grid the measurement loop used, so the
	// divergence report comes out in a fixed order.
	ref := results[[2]int{1, 0}].sig
	for _, gi := range []int{0, 1} {
		for _, nd := range []int{1, 2, 4} {
			if res := results[[2]int{nd, gi}]; res.sig != ref {
				fmt.Fprintf(os.Stderr, "gpubench: trajectory diverged at devices=%d graphs=%d (sig %.17g vs %.17g)\n",
					nd, gi, res.sig, ref)
				ok = false
			}
		}
	}
	return ok
}

// fieldSum folds the auxiliary-field configuration into a deterministic
// scalar (fixed iteration order, so bitwise-equal trajectories fold to
// bitwise-equal sums).
func fieldSum(f *hubbard.Field) float64 {
	var s float64
	for _, slice := range f.H {
		for _, h := range slice {
			s += h
		}
	}
	return s
}

// matSum folds a matrix into a deterministic scalar, column-major.
func matSum(m *mat.Dense) float64 {
	var s float64
	for j := 0; j < m.Cols; j++ {
		for _, x := range m.Col(j) {
			s += x
		}
	}
	return s
}

func randomMatrix(n int) *mat.Dense {
	r := rng.New(uint64(n) * 3)
	m := mat.New(n, n)
	for j := 0; j < n; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 2*r.Float64() - 1
		}
	}
	return m
}
