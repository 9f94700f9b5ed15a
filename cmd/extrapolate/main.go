// Command extrapolate is the study driver: it runs one configuration per
// value of a scanned parameter and tabulates the observables. Scanning a
// discretization also fits its systematic error away: -scan l fits
// observable(dtau) = y0 + c*dtau^2 and reports the dtau -> 0 limit; -scan nx
// (Nx = Ny) fits observable(L) = y_inf + c/L and reports the bulk limit, the
// paper's Figure 7 test of whether antiferromagnetic order survives as
// N -> infinity. Parameters not scanned come from the flags, with
// L = beta/dtau rounded to the nearest integer unless l is scanned.
//
// Usage:
//
//	extrapolate -scan l -values 8,16,32 -obs docc -nx 4 -u 4 -beta 2
//	extrapolate -scan nx -values 4,6,8 -obs saf -u 4 -beta 3
//	extrapolate -scan u -values -6,-4,0,4,6 -beta 3 -chi [-walkers 2]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"questgo"
	"questgo/internal/benchutil"
	"questgo/internal/stats"
)

func main() {
	scanFlag := flag.String("scan", "l", "parameter to scan: beta, u, mu, tprime, tperp, l or nx (Nx = Ny)")
	valuesFlag := flag.String("values", "8,16,32", "comma-separated values of the scanned parameter")
	obsFlag := flag.String("obs", "docc", "observable to tabulate and fit: docc, kinetic, moment, saf, czzmax")
	nx := flag.Int("nx", 4, "lattice linear size, Nx = Ny (when not scanned)")
	layers := flag.Int("layers", 1, "layers")
	u := flag.Float64("u", 4, "interaction (when not scanned)")
	beta := flag.Float64("beta", 2, "inverse temperature (when not scanned)")
	dtau := flag.Float64("dtau", 0.1, "Trotter step, L = beta/dtau rounded (when l is not scanned)")
	warm := flag.Int("warm", 100, "warmup sweeps")
	meas := flag.Int("meas", 400, "measurement sweeps")
	walkers := flag.Int("walkers", 1, "parallel Markov chains per point")
	chi := flag.Bool("chi", false, "also sample the spin susceptibility chi_zz(pi,pi) (one walker)")
	chiSamples := flag.Int("chisamples", 5, "sweeps sampled for chi")
	seed := flag.Uint64("seed", 1, "RNG seed")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("extrapolate: ")

	scan, obsName := strings.ToLower(*scanFlag), strings.ToLower(*obsFlag)
	pick, ok := observables[obsName]
	if !ok {
		log.Fatalf("unknown observable %q", obsName)
	}
	values, err := parseValues(scan, *valuesFlag)
	if err != nil {
		log.Fatal(err)
	}
	base := questgo.DefaultConfig()
	base.Nx, base.Ny, base.Layers = *nx, *nx, *layers
	base.U, base.Beta = *u, *beta
	base.WarmSweeps, base.MeasSweeps, base.Seed = *warm, *meas, *seed
	cfgs, err := points(base, scan, values, *dtau)
	if err != nil {
		log.Fatal(err)
	}

	header := []string{scan, "density", "docc", "moment", "S(pi,pi)", "<sign>", obsName}
	if *chi {
		header = append(header, "chi_AF")
	}
	tbl := benchutil.NewTable(header...)
	var dtaus, vals, errs []float64
	var sizes []int
	for i, cfg := range cfgs {
		fmt.Fprintf(os.Stderr, "running %s = %g (L = %d)...\n", scan, values[i], cfg.L)
		res, chiStr, err := run(cfg, *walkers, *chi, *chiSamples)
		if err != nil {
			log.Fatal(err)
		}
		v, e := pick(res)
		dtaus = append(dtaus, cfg.Beta/float64(cfg.L))
		sizes = append(sizes, cfg.Nx)
		vals = append(vals, v)
		errs = append(errs, max(e, 1e-12))
		row := []interface{}{
			fmt.Sprintf("%g", values[i]),
			fmt.Sprintf("%.4f+-%.4f", res.Density, res.DensityErr),
			fmt.Sprintf("%.4f+-%.4f", res.DoubleOcc, res.DoubleOccErr),
			fmt.Sprintf("%.4f", res.LocalMoment),
			fmt.Sprintf("%.3f+-%.3f", res.SAF, res.SAFErr),
			fmt.Sprintf("%.3f", res.AvgSign),
			fmt.Sprintf("%.5f+-%.5f", v, e),
		}
		if *chi {
			row = append(row, chiStr)
		}
		tbl.AddRow(row...)
	}
	fmt.Println()
	tbl.Render(os.Stdout)

	var limit string
	var y, yErr float64
	switch scan {
	case "l":
		limit = "dtau -> 0"
		y, yErr, err = stats.TrotterExtrapolate(dtaus, vals, errs)
	case "nx":
		limit = "L -> infinity"
		y, yErr, err = stats.FiniteSizeExtrapolate(sizes, vals, errs)
	default:
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s extrapolation: %s = %.5f +- %.5f\n", limit, obsName, y, yErr)
}

// observables maps each -obs name to its value and error bar in a result.
var observables = map[string]func(*questgo.Results) (float64, float64){
	"docc":    func(r *questgo.Results) (float64, float64) { return r.DoubleOcc, r.DoubleOccErr },
	"kinetic": func(r *questgo.Results) (float64, float64) { return r.Kinetic, r.KineticErr },
	"moment":  func(r *questgo.Results) (float64, float64) { return r.LocalMoment, r.LocalMomentErr },
	"saf":     func(r *questgo.Results) (float64, float64) { return r.SAF, r.SAFErr },
	"czzmax": func(r *questgo.Results) (float64, float64) {
		h := r.Config.Nx/2 + r.Config.Nx*(r.Config.Nx/2)
		return r.Czz[h], r.CzzErr[h]
	},
}

// params maps each -scan name to the Config field it sets.
var params = map[string]func(*questgo.Config, float64){
	"beta":   func(c *questgo.Config, v float64) { c.Beta = v },
	"u":      func(c *questgo.Config, v float64) { c.U = v },
	"mu":     func(c *questgo.Config, v float64) { c.Mu = v },
	"tprime": func(c *questgo.Config, v float64) { c.TPrime = v },
	"tperp":  func(c *questgo.Config, v float64) { c.Tperp = v },
	"l":      func(c *questgo.Config, v float64) { c.L = int(v) },
	"nx":     func(c *questgo.Config, v float64) { c.Nx, c.Ny = int(v), int(v) },
}

// parseValues reads the scanned values: positive integers for l and nx,
// any numbers otherwise.
func parseValues(scan, s string) ([]float64, error) {
	if scan == "l" || scan == "nx" {
		ns, err := benchutil.ParseSizes(s)
		out := make([]float64, len(ns))
		for i, n := range ns {
			out[i] = float64(n)
		}
		return out, err
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// points returns one configuration per scanned value: base with the scanned
// parameter set and, unless it is l, L = beta/dtau.
func points(base questgo.Config, scan string, values []float64, dtau float64) ([]questgo.Config, error) {
	set, ok := params[scan]
	if !ok {
		return nil, fmt.Errorf("unknown parameter %q", scan)
	}
	cfgs := make([]questgo.Config, len(values))
	for i, v := range values {
		c := base
		set(&c, v)
		if scan != "l" {
			l, err := sliceCount(c.Beta, dtau)
			if err != nil {
				return nil, err
			}
			c.L = l
		}
		cfgs[i] = c
	}
	return cfgs, nil
}

// sliceCount returns L = beta/dtau rounded to the nearest integer:
// truncation would run 2.3/0.1 = 22.999... as 22 slices of dtau = 0.1045.
func sliceCount(beta, dtau float64) (int, error) {
	l := math.Round(beta / dtau)
	if !(dtau > 0) || !(l >= 1 && l <= math.MaxInt32) {
		return 0, fmt.Errorf("-dtau %g at beta %g gives no slice count >= 1 (dtau must be positive and finite)", dtau, beta)
	}
	return int(l), nil
}

// run executes one point: a single chain, which -chi continues for the
// susceptibility samples, or a walker group, for which chi is not sampled.
func run(cfg questgo.Config, walkers int, chi bool, chiSamples int) (*questgo.Results, string, error) {
	if walkers > 1 {
		res, err := questgo.Run(context.Background(), cfg, questgo.WithWalkers(walkers))
		return res, "n/a(walkers)", err
	}
	sim, err := questgo.NewSimulation(cfg)
	if err != nil {
		return nil, "", err
	}
	res := sim.Run()
	if !chi {
		return res, "", nil
	}
	cr, err := sim.SampleSusceptibility(chiSamples, 0)
	if err != nil {
		return nil, "", err
	}
	return res, fmt.Sprintf("%.3f+-%.3f", cr.AF, cr.AFErr), nil
}
