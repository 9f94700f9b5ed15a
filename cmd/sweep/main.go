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
	flag.Parse()

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
