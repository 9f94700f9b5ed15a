// Command dqmc runs a full DQMC simulation of the Hubbard model, the
// QUEST-equivalent driver. Parameters come from a QUEST-style input file
// and/or command-line flags (flags win). It prints the physical
// observables with error bars and the Table-I-style phase profile.
//
// Usage:
//
//	dqmc [-in run.in] [-nx 4] [-ny 4] [-layers 1] [-u 4] [-mu 0]
//	     [-beta 2] [-l 10] [-warm 50] [-meas 100] [-k 10] [-seed 1]
//	     [-prepivot] [-progress] [-stability 8] [-autopilot] [-json out.json]
//
// Interrupting a run (SIGINT/SIGTERM) stops it at the next sweep boundary;
// with -checkpoint set the state is saved there and -resume continues that
// run (a file written after a finished run starts a new -warm/-meas run).
//
// Example input file:
//
//	nx = 8
//	ny = 8
//	u = 2
//	beta = 8
//	l = 40
//	warm = 200
//	meas = 500
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"runtime/trace"
	"syscall"

	"questgo"
	"questgo/internal/obs"
)

func main() {
	def := questgo.DefaultConfig()
	in := flag.String("in", "", "QUEST-style input file (the defaults below then come from it)")
	nx := flag.Int("nx", def.Nx, "lattice x size")
	ny := flag.Int("ny", def.Ny, "lattice y size")
	layers := flag.Int("layers", def.Layers, "number of planes")
	tperp := flag.Float64("tperp", def.Tperp, "inter-layer hopping")
	u := flag.Float64("u", def.U, "interaction U (negative = attractive)")
	mu := flag.Float64("mu", def.Mu, "chemical potential")
	beta := flag.Float64("beta", def.Beta, "inverse temperature")
	l := flag.Int("l", def.L, "time slices")
	warm := flag.Int("warm", def.WarmSweeps, "warmup sweeps")
	meas := flag.Int("meas", def.MeasSweeps, "measurement sweeps")
	k := flag.Int("k", def.ClusterK, "matrix clustering size")
	seed := flag.Uint64("seed", def.Seed, "RNG seed")
	qrp := flag.Bool("qrp", false, "use Algorithm 2 (QRP) instead of pre-pivoting")
	dynamics := flag.Bool("dynamics", false, "measure time-displaced G(d,tau) as well")
	progress := flag.Bool("progress", false, "print per-sweep progress")
	stability := flag.Int("stability", 0, "sample the stack-vs-rebuild residual every N cluster boundaries (0 = off)")
	auto := flag.Bool("autopilot", false, "adapt k and the stability-check cadence from live telemetry")
	devices := flag.Int("devices", 0, "simulated accelerators to sweep on (0 = CPU sweeper)")
	graphs := flag.Bool("graphs", false, "launch each device wrap/cluster call as one command graph (needs -devices >= 1)")
	jsonOut := flag.String("json", "", "also write results (with phase metrics) as JSON to this file")
	walkers := flag.Int("walkers", 1, "independent parallel Markov chains to merge")
	ckptOut := flag.String("checkpoint", "", "write a restart file here after the run (or on interrupt)")
	resume := flag.String("resume", "", "resume the Markov chain from this restart file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	cfg := def
	if *in != "" {
		var err error
		cfg, err = questgo.LoadConfig(*in)
		if err != nil {
			fatal(err)
		}
	}
	// Exactly the flags given on the command line override the file: a value
	// is never a sentinel, so -u -4, -mu 0.5 and -seed 0 mean what they say.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "nx":
			cfg.Nx = *nx
		case "ny":
			cfg.Ny = *ny
		case "layers":
			cfg.Layers = *layers
		case "tperp":
			cfg.Tperp = *tperp
		case "u":
			cfg.U = *u
		case "mu":
			cfg.Mu = *mu
		case "beta":
			cfg.Beta = *beta
		case "l":
			cfg.L = *l
		case "warm":
			cfg.WarmSweeps = *warm
		case "meas":
			cfg.MeasSweeps = *meas
		case "k":
			cfg.ClusterK = *k
		case "seed":
			cfg.Seed = *seed
		case "qrp":
			cfg.PrePivot = !*qrp
		case "dynamics":
			cfg.MeasureDynamics = *dynamics
		case "stability":
			cfg.StabilityCheckEvery = *stability
		case "autopilot":
			cfg.Autopilot = *auto
		case "devices":
			cfg.Devices = *devices
		case "graphs":
			cfg.UseGraphs = *graphs
		}
	})
	err := cfg.Validate()
	if err != nil {
		fatal(err)
	}

	if *cpuprofile != "" {
		defer startProfiler(*cpuprofile, pprof.StartCPUProfile, pprof.StopCPUProfile)()
	}
	if *tracePath != "" {
		defer startProfiler(*tracePath, trace.Start, trace.Stop)()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var cb func(questgo.Progress)
	if *progress {
		cb = func(p questgo.Progress) {
			if p.Sweep%10 == 0 || p.Sweep == p.Total {
				fmt.Fprintf(os.Stderr, "\r%s %d/%d (%.1fs)", p.Stage, p.Sweep, p.Total, p.Wall.Seconds())
				if p.Sweep == p.Total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}

	var res *questgo.Results
	var sim *questgo.Simulation
	// Runs that must write a restart file (resume continuation, or
	// -checkpoint on a single walker) keep the Simulation in hand so the
	// final state can be saved on success as well as on interrupt; everything
	// else goes through the unified Run entry point.
	if *resume != "" || (*ckptOut != "" && *walkers <= 1) {
		if *walkers > 1 {
			fatal(errors.New("-walkers cannot combine with -resume"))
		}
		if *resume != "" {
			ck, lerr := questgo.LoadCheckpoint(*resume)
			if lerr != nil {
				fatal(lerr)
			}
			// A file written mid-run continues its own schedule; one written
			// between runs takes the flags'/input's.
			if ck.Sweeps == 0 {
				ck.Config.WarmSweeps, ck.Config.MeasSweeps = cfg.WarmSweeps, cfg.MeasSweeps
			}
			cfg = ck.Config
			if sim, err = questgo.Resume(ck); err != nil {
				fatal(err)
			}
		} else if sim, err = questgo.NewSimulation(cfg); err != nil {
			fatal(err)
		}
		banner(cfg)
		res, err = sim.RunContext(ctx, cb)
		// A finished or interrupted chain is saved to resume; an unstable
		// one is not worth resuming.
		var unstable *questgo.ErrUnstable
		if *ckptOut != "" && !errors.As(err, &unstable) {
			if serr := sim.Checkpoint().Save(*ckptOut); serr != nil {
				fatal(fmt.Errorf("checkpoint: %w", serr))
			}
			fmt.Fprintf(os.Stderr, "dqmc: checkpoint written to %s\n", *ckptOut)
		}
		if err != nil {
			fatal(err)
		}
	} else {
		banner(cfg)
		ropts := []questgo.RunOption{questgo.WithProgress(cb)}
		if *walkers > 1 {
			ropts = append(ropts, questgo.WithWalkers(*walkers))
		}
		if res, err = questgo.Run(ctx, cfg, ropts...); err != nil {
			fatal(err)
		}
	}

	fmt.Println("Observables (per site):")
	fmt.Printf("  density        %10.6f +- %.6f\n", res.Density, res.DensityErr)
	fmt.Printf("  double occ.    %10.6f +- %.6f\n", res.DoubleOcc, res.DoubleOccErr)
	fmt.Printf("  kinetic energy %10.6f +- %.6f\n", res.Kinetic, res.KineticErr)
	fmt.Printf("  potential U*d  %10.6f +- %.6f\n", res.Potential, res.PotentialErr)
	fmt.Printf("  local moment   %10.6f +- %.6f\n", res.LocalMoment, res.LocalMomentErr)
	fmt.Printf("  S(pi,pi)       %10.6f +- %.6f\n", res.SAF, res.SAFErr)
	if len(res.LayerDensity) > 1 {
		fmt.Printf("  layer densities %v\n", res.LayerDensity)
	}
	fmt.Printf("\nMonte Carlo: <sign> = %.4f, acceptance = %.3f, max wrap drift = %.2e\n",
		res.AvgSign, res.Acceptance, res.MaxWrapDrift)
	if m := res.Metrics; m != nil {
		fmt.Printf("Phase metrics: wall %.1f ms", m.WallMS)
		for _, ph := range [...]string{"wrap", "flush", "cluster", "refresh", "measure"} {
			fmt.Printf(", %s %.1f ms", ph, m.PhaseMS[ph])
		}
		fmt.Printf(" (coverage %.0f%%)\n", 100*m.PhaseCoverage)
		if m.Stability.StratResidualSamples > 0 {
			fmt.Printf("Stability: strat residual max %.2e over %d checks, UDT cond max 1e%.1f\n",
				m.Stability.MaxStratResidual, m.Stability.StratResidualSamples,
				m.Stability.MaxUDTCondLog10)
		}
		if ap := m.Autopilot; ap != nil && ap.Enabled {
			fmt.Printf("Autopilot: k %d -> %d, check cadence %d -> %d (%d shrinks, %d grows)\n",
				ap.InitialK, ap.FinalK, ap.InitialCheckEvery, ap.FinalCheckEvery,
				ap.Shrinks, ap.Grows)
			if ap.NonFinite {
				fmt.Printf("Autopilot: %d non-finite stability samples — emergency minimum engaged\n",
					ap.NonFiniteEvents)
			}
		}
	}
	if len(res.DisplacedTaus) > 0 {
		fmt.Println("\nTime-displaced local Green's function:")
		dtau := cfg.Beta / float64(cfg.L)
		for i, l := range res.DisplacedTaus {
			fmt.Printf("  G(0, tau=%.3f) = %.5f +- %.5f\n",
				dtau*float64(l), res.GdTau[i][0], res.GdTauErr[i][0])
		}
	}
	fmt.Println("\nTable I profile:")
	fmt.Print(obs.Table(res.Metrics))
	if *jsonOut != "" {
		if err := res.SaveJSON(*jsonOut); err != nil {
			fatal(fmt.Errorf("json: %w", err))
		}
		fmt.Printf("\nresults written to %s\n", *jsonOut)
	}
}

func banner(cfg questgo.Config) {
	fmt.Printf("DQMC: %dx%dx%d sites, U=%g mu=%g beta=%g L=%d (dtau=%g), k=%d, prepivot=%v\n",
		cfg.Nx, cfg.Ny, cfg.Layers, cfg.U, cfg.Mu, cfg.Beta, cfg.L,
		cfg.Beta/float64(cfg.L), cfg.ClusterK, cfg.PrePivot)
	fmt.Printf("Schedule: %d warmup + %d measurement sweeps, seed %d\n\n",
		cfg.WarmSweeps, cfg.MeasSweeps, cfg.Seed)
}

// startProfiler creates path and starts a Go profiler writing to it (obs
// answers "which DQMC phase is slow", these answer "which function inside
// it"); the returned function stops the profiler and closes the file.
func startProfiler(path string, start func(io.Writer) error, stop func()) func() {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := start(f); err != nil {
		fatal(err)
	}
	return func() {
		stop()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dqmc:", err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dqmc:", err)
	os.Exit(1)
}
