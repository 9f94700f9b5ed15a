// Command sweep scans a physical parameter (beta, u, mu, tprime or tperp)
// across a list of values, running a full DQMC simulation (optionally
// several parallel walkers) at each point and tabulating the observables —
// the workflow behind finite-size/temperature studies like the paper's
// Figure 7 extrapolation discussion.
//
// Usage:
//
//	sweep -scan beta -values 1,2,3,4 [-nx 4] [-u 4] [-walkers 2] [-chi]
//	sweep -scan u -values 0,2,4,6 -beta 3
//
// With -obscheck, the command instead measures the overhead of the metrics
// instrumentation (enabled collector vs disabled) on the hot sweep path of
// an 8x8 lattice and fails if it exceeds 2 percent — the regression gate
// wired into reproduce.sh:
//
//	sweep -obscheck
//
// With -autopilot, the command instead runs the stability-autopilot
// ablation (4x4, beta=32, L=160, k=10, check cadence 2): one fixed-k run and
// one autopilot run of the same chain, each appending a benchutil.Record to
// the named file. With -apgate it fails unless the controller held the strat
// residual under 1e-8 without checking more often or running slower than the
// fixed baseline:
//
//	sweep -autopilot BENCH_autopilot.json -apgate
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"questgo"
	"questgo/internal/benchutil"
	"questgo/internal/core"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/obs"
	"questgo/internal/rng"
	"questgo/internal/update"
)

func main() {
	scan := flag.String("scan", "beta", "parameter to scan: beta, u, mu, tprime, tperp")
	valuesFlag := flag.String("values", "1,2,3", "comma-separated parameter values")
	nx := flag.Int("nx", 4, "lattice linear size")
	layers := flag.Int("layers", 1, "layers")
	u := flag.Float64("u", 4, "interaction (when not scanned)")
	beta := flag.Float64("beta", 3, "inverse temperature (when not scanned)")
	dtau := flag.Float64("dtau", 0.1, "Trotter step (L = beta/dtau)")
	warm := flag.Int("warm", 50, "warmup sweeps")
	meas := flag.Int("meas", 150, "measurement sweeps")
	walkers := flag.Int("walkers", 1, "parallel Markov chains per point")
	chi := flag.Bool("chi", false, "also sample the spin susceptibility chi_zz(pi,pi)")
	chiSamples := flag.Int("chisamples", 5, "sweeps sampled for chi")
	seed := flag.Uint64("seed", 1, "RNG seed")
	obscheck := flag.Bool("obscheck", false, "overhead mode: gate metrics instrumentation cost on the sweep hot path")
	apPath := flag.String("autopilot", "", "ablation mode: append autopilot-vs-fixed records to this file")
	apgate := flag.Bool("apgate", false, "fail unless the autopilot matches the fixed run's residual, checks and wall time")
	flag.Parse()

	if *apPath != "" {
		if err := runAutopilotBench(*apPath, *apgate); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		return
	}

	if *obscheck {
		if err := runObsCheck(); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		return
	}

	values, err := parseFloats(*valuesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}

	header := []string{*scan, "density", "docc", "moment", "S(pi,pi)", "<sign>"}
	if *chi {
		header = append(header, "chi_AF")
	}
	tbl := benchutil.NewTable(header...)
	for _, v := range values {
		cfg := questgo.DefaultConfig()
		cfg.Nx, cfg.Ny, cfg.Layers = *nx, *nx, *layers
		cfg.U, cfg.Beta = *u, *beta
		cfg.WarmSweeps, cfg.MeasSweeps, cfg.Seed = *warm, *meas, *seed
		switch strings.ToLower(*scan) {
		case "beta":
			cfg.Beta = v
		case "u":
			cfg.U = v
		case "mu":
			cfg.Mu = v
		case "tprime":
			cfg.TPrime = v
		case "tperp":
			cfg.Tperp = v
		default:
			fmt.Fprintf(os.Stderr, "sweep: unknown parameter %q\n", *scan)
			os.Exit(1)
		}
		cfg.L = max(4, int(cfg.Beta / *dtau))
		fmt.Fprintf(os.Stderr, "running %s = %g (L = %d)...\n", *scan, v, cfg.L)

		var res *questgo.Results
		var chiStr string
		if *walkers > 1 {
			res, err = questgo.Run(context.Background(), cfg, questgo.WithWalkers(*walkers))
			if err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
				os.Exit(1)
			}
			if *chi {
				chiStr = "n/a(walkers)"
			}
		} else {
			sim, err := questgo.NewSimulation(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
				os.Exit(1)
			}
			res = sim.Run()
			if *chi {
				cr := sampleChi(sim, *chiSamples)
				chiStr = fmt.Sprintf("%.3f+-%.3f", cr.AF, cr.AFErr)
			}
		}
		row := []interface{}{
			fmt.Sprintf("%g", v),
			fmt.Sprintf("%.4f+-%.4f", res.Density, res.DensityErr),
			fmt.Sprintf("%.4f+-%.4f", res.DoubleOcc, res.DoubleOccErr),
			fmt.Sprintf("%.4f", res.LocalMoment),
			fmt.Sprintf("%.3f+-%.3f", res.SAF, res.SAFErr),
			fmt.Sprintf("%.3f", res.AvgSign),
		}
		if *chi {
			row = append(row, chiStr)
		}
		tbl.AddRow(row...)
	}
	fmt.Println()
	tbl.Render(os.Stdout)
}

func sampleChi(sim *questgo.Simulation, samples int) *core.ChiResult {
	return sim.SampleSusceptibility(samples, 0)
}

// sweepSetup builds the model -obscheck times sweeps of.
func sweepSetup(nx, l int) (prop *hubbard.Propagator, n int, err error) {
	lat := lattice.NewSquare(nx, nx, 1.0)
	model, err := hubbard.NewModel(lat, 4, 0, 0.125*float64(l), l)
	if err != nil {
		return nil, 0, err
	}
	return hubbard.NewPropagator(model), model.N(), nil
}

// timeSweeps measures seconds per Metropolis sweep under the given options,
// after one untimed warmup sweep to populate pools and caches.
func timeSweeps(prop *hubbard.Propagator, l, sweeps int, o update.Options) float64 {
	f := hubbard.NewRandomField(l, prop.Model.N(), rng.New(11))
	sw := update.NewSweeper(prop, f, rng.New(23), o)
	sw.Sweep()
	start := time.Now()
	for i := 0; i < sweeps; i++ {
		sw.Sweep()
	}
	return time.Since(start).Seconds() / float64(sweeps)
}

// runAutopilotBench runs the stability-autopilot ablation: the same Markov
// chain once with fixed k and check cadence, once under the controller, and
// appends one benchutil.Record per variant. The gate asserts the controller
// earns its keep — residual held under maxRes, no more residual checks than
// the fixed baseline (the adapted cadence is never denser), and wall time
// within 10% of the fixed run.
func runAutopilotBench(path string, gate bool) error {
	// The one workload reproduce.sh records and gates on.
	const (
		nx, beta, l = 4, 32.0, 160
		k, check    = 10, 2 // initial cluster size, fixed stability-check cadence
		warm, meas  = 5, 15
		maxRes      = 1e-8 // max tolerated strat residual
	)
	base := questgo.DefaultConfig() // U = 4, half filling, seed 1
	base.Nx, base.Ny = nx, nx
	base.Beta, base.L = beta, l
	base.WarmSweeps, base.MeasSweeps = warm, meas
	base.ClusterK, base.StabilityCheckEvery = k, check
	auto := base
	auto.Autopilot = true

	type outcome struct {
		res     *questgo.Results
		secs    float64
		checks  int64
		maxRes  float64
		finalK  int
		cadence int
	}
	runOne := func(cfg questgo.Config) (*outcome, error) {
		start := time.Now()
		res, err := questgo.Run(context.Background(), cfg)
		if err != nil {
			return nil, err
		}
		o := &outcome{
			res:     res,
			secs:    time.Since(start).Seconds(),
			checks:  res.Metrics.Stability.StratResidualSamples,
			maxRes:  res.Metrics.Stability.MaxStratResidual,
			finalK:  cfg.ClusterK,
			cadence: cfg.StabilityCheckEvery,
		}
		if ap := res.Metrics.Autopilot; ap != nil && ap.Enabled {
			o.finalK = ap.FinalK
			o.cadence = ap.FinalCheckEvery
		}
		return o, nil
	}

	fmt.Printf("Autopilot ablation: %dx%d, beta=%g L=%d, k=%d check=%d, %d+%d sweeps\n\n",
		nx, nx, beta, l, k, check, warm, meas)
	fixed, err := runOne(base)
	if err != nil {
		return err
	}
	piloted, err := runOne(auto)
	if err != nil {
		return err
	}

	tbl := benchutil.NewTable("variant", "final k", "cadence", "checks", "max residual", "wall s")
	for _, pt := range []struct {
		name string
		o    *outcome
	}{{"fixed", fixed}, {"autopilot", piloted}} {
		tbl.AddRow(pt.name, pt.o.finalK, pt.o.cadence, pt.o.checks,
			fmt.Sprintf("%.2e", pt.o.maxRes), fmt.Sprintf("%.2f", pt.o.secs))
		resLog := 0
		if pt.o.maxRes > 0 {
			resLog = int(math.Floor(math.Log10(pt.o.maxRes)))
		}
		rec := benchutil.NewRecord("autopilot", pt.name, nx*nx, pt.o.secs, 0).
			WithParam("nx", nx).WithParam("l", l).WithParam("k", pt.o.finalK).
			WithParam("beta", int(beta)).WithParam("cadence", pt.o.cadence).
			WithParam("checks", int(pt.o.checks)).WithParam("res_log10", resLog)
		if err := rec.Append(path); err != nil {
			return err
		}
	}
	tbl.Render(os.Stdout)

	if !gate {
		return nil
	}
	switch {
	case piloted.maxRes > maxRes:
		return fmt.Errorf("autopilot let the strat residual reach %.2e (gate %.1e)", piloted.maxRes, maxRes)
	case piloted.checks > fixed.checks:
		return fmt.Errorf("autopilot checked %d times, denser than the fixed baseline's %d", piloted.checks, fixed.checks)
	case piloted.secs > 1.10*fixed.secs:
		return fmt.Errorf("autopilot wall %.2fs exceeds fixed %.2fs by more than 10%%", piloted.secs, fixed.secs)
	}
	fmt.Printf("\ngate passed: residual %.2e <= %.1e, %d <= %d checks, wall %.2fs vs %.2fs\n",
		piloted.maxRes, maxRes, piloted.checks, fixed.checks, piloted.secs, fixed.secs)
	return nil
}

// runObsCheck interleaves timed sweep batches with the metrics collector
// disabled (nil) and enabled, compares the best time of each variant, and
// fails when the enabled path is more than maxPct percent slower. The
// instrumentation contract is a handful of atomic adds and monotonic clock
// reads per sweep phase, so the measured overhead should be far below the
// gate; taking the minimum over interleaved repetitions suppresses
// scheduler noise.
func runObsCheck() error {
	const (
		nx     = 8     // lattice linear size
		l, k   = 40, 5 // time slices, cluster size
		sweeps = 2     // timed sweeps per batch
		reps   = 3     // interleaved repetitions per variant
		maxPct = 2.0   // maximum tolerated overhead, percent
	)
	prop, n, err := sweepSetup(nx, l)
	if err != nil {
		return err
	}
	bestOff, bestOn := math.Inf(1), math.Inf(1)
	for r := 0; r < reps; r++ {
		if t := timeSweeps(prop, l, sweeps, update.Options{ClusterK: k, PrePivot: true}); t < bestOff {
			bestOff = t
		}
		col := obs.New()
		col.Reset()
		if t := timeSweeps(prop, l, sweeps, update.Options{ClusterK: k, PrePivot: true, Obs: col}); t < bestOn {
			bestOn = t
		}
	}
	overhead := (bestOn - bestOff) / bestOff * 100
	fmt.Printf("metrics overhead check: N=%d L=%d k=%d, %d sweeps x %d reps\n", n, l, k, sweeps, reps)
	fmt.Printf("  collector off: %8.2f ms/sweep\n", bestOff*1e3)
	fmt.Printf("  collector on:  %8.2f ms/sweep\n", bestOn*1e3)
	fmt.Printf("  overhead:      %+7.2f%% (gate %.1f%%)\n", overhead, maxPct)
	if overhead > maxPct {
		return fmt.Errorf("instrumentation overhead %.2f%% exceeds %.1f%% gate", overhead, maxPct)
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty value list")
	}
	return out, nil
}
