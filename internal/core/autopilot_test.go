package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

func autopilotTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 4, 4
	cfg.U, cfg.Beta, cfg.L = 4, 2, 12
	cfg.ClusterK = 6
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 4
	cfg.Autopilot = true
	return cfg
}

// unstableAutopilotConfig starts the controller at a cluster size the chain
// cannot hold: k = 24 at beta = 12, L = 120 (k*dtau = 2.4) wraps the
// Green's function far enough that its drift (~5e-3) crosses the 1e-3
// ceiling in the second sweep and k shrinks to 20. The drift stays an order
// of magnitude under the 5% at which the qmcdebug sanitizer aborts; larger
// clusters (k = 20 at beta = 32) cross that too.
func unstableAutopilotConfig() Config {
	cfg := autopilotTestConfig()
	cfg.Beta, cfg.L = 12, 120
	cfg.ClusterK = 24
	return cfg
}

// TestAutopilotRun is the end-to-end smoke test: an autopilot run with the
// spin-parallel sweeper completes, reports the controller trajectory in the
// metrics document, and keeps k a divisor of L throughout. Running in the
// -race suite, this also exercises the listener receiving samples from both
// spin goroutines concurrently (satellite 5).
func TestAutopilotRun(t *testing.T) {
	cfg := autopilotTestConfig()
	res, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ap := res.Metrics.Autopilot
	if ap == nil || !ap.Enabled {
		t.Fatal("autopilot run must carry an autopilot metrics document")
	}
	if ap.InitialK != 6 {
		t.Fatalf("initial k = %d, want 6", ap.InitialK)
	}
	if ap.FinalK < 1 || cfg.L%ap.FinalK != 0 {
		t.Fatalf("final k = %d must divide L = %d", ap.FinalK, cfg.L)
	}
	if ap.FinalCheckEvery < 1 {
		t.Fatalf("final check cadence = %d, want >= 1", ap.FinalCheckEvery)
	}
	if res.Metrics.Stability.StratResidualSamples == 0 {
		t.Fatal("autopilot run took no residual samples (controller is blind)")
	}
}

// TestAutopilotShrinksOnTightCeiling: a cluster size too large for the
// chain must breach a ceiling and force the controller off the initial k,
// and the run must survive the mid-run resize with finite observables.
func TestAutopilotShrinksOnTightCeiling(t *testing.T) {
	cfg := unstableAutopilotConfig()
	res, err := runOnce(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ap := res.Metrics.Autopilot
	if ap.Shrinks == 0 || ap.InitialK != cfg.ClusterK || ap.FinalK >= ap.InitialK {
		t.Fatalf("k = %d at beta = %g did not shrink: %+v", cfg.ClusterK, cfg.Beta, ap)
	}
	if res.AvgSign == 0 || res.Density != res.Density {
		t.Fatalf("observables corrupted after resize: sign %v density %v", res.AvgSign, res.Density)
	}
}

// TestAutopilotClampedMatchesFixed: an autopilot started at k = 1, the
// smallest k and its own cap, must be bitwise identical to the plain
// fixed-k run — the controller retunes the check cadence, but cadence never
// perturbs the Markov chain, and a clamped k has nowhere to go.
func TestAutopilotClampedMatchesFixed(t *testing.T) {
	fixed := autopilotTestConfig()
	fixed.ClusterK = 1
	fixed.Autopilot = false
	fixed.StabilityCheckEvery = 4 // match the autopilot default cadence
	fref, err := runOnce(fixed)
	if err != nil {
		t.Fatal(err)
	}

	clamped := fixed
	clamped.Autopilot = true
	clamped.StabilityCheckEvery = 0
	cres, err := runOnce(clamped)
	if err != nil {
		t.Fatal(err)
	}

	if ap := cres.Metrics.Autopilot; ap.FinalK != 1 || ap.FinalCheckEvery != 8 {
		t.Fatalf("controller at k = 1 should keep k and relax the cadence 4 -> 8: %+v", ap)
	}
	if cres.Density != fref.Density || cres.DoubleOcc != fref.DoubleOcc ||
		cres.Kinetic != fref.Kinetic || cres.AvgSign != fref.AvgSign ||
		cres.SAF != fref.SAF {
		t.Fatalf("clamped autopilot diverged from fixed-k run:\n  fixed:   den=%v docc=%v kin=%v\n  clamped: den=%v docc=%v kin=%v",
			fref.Density, fref.DoubleOcc, fref.Kinetic, cres.Density, cres.DoubleOcc, cres.Kinetic)
	}
}

// TestAutopilotHoldsResidualWithFewerChecks is the fixed-vs-autopilot
// ablation (4x4, beta=32, L=160, k=10, cadence 2, 5+15 sweeps): the
// controller keeps the strat residual under 1e-8 and, because a quiet chain
// relaxes its cadence, takes fewer residual samples than the fixed-cadence
// run (a cadence that never relaxes would tie). Fewer checks must mean less
// work: strictly fewer UDT steps and GEMM flops than the fixed run.
func TestAutopilotHoldsResidualWithFewerChecks(t *testing.T) {
	fixed := DefaultConfig() // 4x4, U = 4, seed 1
	fixed.Beta, fixed.L = 32, 160
	fixed.WarmSweeps, fixed.MeasSweeps = 5, 15
	fixed.ClusterK, fixed.StabilityCheckEvery = 10, 2
	piloted := fixed
	piloted.Autopilot = true
	fres, err := Run(context.Background(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := Run(context.Background(), piloted)
	if err != nil {
		t.Fatal(err)
	}
	fst, pst := fres.Metrics.Stability, pres.Metrics.Stability
	if pst.MaxStratResidual > 1e-8 {
		t.Errorf("autopilot let the strat residual reach %.2e (bound 1e-8)", pst.MaxStratResidual)
	}
	if pst.StratResidualSamples == 0 || pst.StratResidualSamples >= fst.StratResidualSamples {
		t.Errorf("autopilot took %d residual samples, fixed cadence %d: want 0 < autopilot < fixed",
			pst.StratResidualSamples, fst.StratResidualSamples)
	}
	fops, pops := fres.Metrics.Ops, pres.Metrics.Ops
	if pops.UDTSteps >= fops.UDTSteps || pops.GemmFlops >= fops.GemmFlops {
		t.Errorf("autopilot did %d UDT steps and %d GEMM flops, fixed %d and %d: want fewer of both",
			pops.UDTSteps, pops.GemmFlops, fops.UDTSteps, fops.GemmFlops)
	}
}

// TestAutopilotRejectsWalkers: the walker group shares one collector whose
// single listener cannot serve several controllers.
func TestAutopilotRejectsWalkers(t *testing.T) {
	cfg := autopilotTestConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 0, 1
	if _, err := Run(context.Background(), cfg, WithWalkers(2)); err == nil {
		t.Fatal("autopilot with multiple walkers must be rejected")
	}
}

// TestCheckpointConfigFieldCoverage (satellite 3) is the drift guard: every
// field of Config must survive a gob round trip of the Checkpoint. The test
// sets each field to a distinctive non-zero value by reflection, so adding
// a Config field that gob cannot serialize (unexported, or an unsupported
// kind this switch does not know how to populate) fails here instead of
// silently resetting on resume.
func TestCheckpointConfigFieldCoverage(t *testing.T) {
	var cfg Config
	v := reflect.ValueOf(&cfg).Elem()
	tp := v.Type()
	for i := 0; i < tp.NumField(); i++ {
		f := tp.Field(i)
		if !f.IsExported() {
			t.Fatalf("Config field %q is unexported: gob drops it from checkpoints", f.Name)
		}
		fv := v.Field(i)
		switch f.Type.Kind() {
		case reflect.Int:
			fv.SetInt(int64(100 + i))
		case reflect.Uint64:
			fv.SetUint(uint64(200 + i))
		case reflect.Float64:
			fv.SetFloat(0.5 + float64(i))
		case reflect.Bool:
			fv.SetBool(true)
		default:
			t.Fatalf("Config field %q has kind %s: teach this test to populate it", f.Name, f.Type.Kind())
		}
	}

	ck := &Checkpoint{Config: cfg, Sign: 1}
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Config, cfg) {
		t.Fatalf("Config did not round-trip through a checkpoint:\n  sent: %+v\n  got:  %+v", cfg, back.Config)
	}
}

// TestResumeKeepsAdaptedK: a checkpoint carrying autopilot state must resume
// with the adapted cluster size and cadence, not the config's originals.
func TestResumeKeepsAdaptedK(t *testing.T) {
	cfg := unstableAutopilotConfig() // guarantees the controller adapts
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 1
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	ck := sim.Checkpoint()
	if ck.Autopilot == nil {
		t.Fatal("autopilot run must checkpoint the controller state")
	}
	if ck.Autopilot.K >= cfg.ClusterK {
		t.Fatalf("controller did not adapt before checkpoint: k = %d", ck.Autopilot.K)
	}

	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ck2, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := Resume(ck2)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim2.ClusterK(); got != ck.Autopilot.K {
		t.Fatalf("resumed sweeper k = %d, want the adapted %d", got, ck.Autopilot.K)
	}
	st := sim2.pilot.State()
	if st.K != ck.Autopilot.K || st.KCap != ck.Autopilot.KCap ||
		st.CheckEvery != ck.Autopilot.CheckEvery || st.Shrinks != ck.Autopilot.Shrinks {
		t.Fatalf("controller state not restored:\n  saved:    %+v\n  restored: %+v", *ck.Autopilot, st)
	}
	// The resumed chain must keep running under the restored controller.
	sim2.cfg.WarmSweeps, sim2.cfg.MeasSweeps = 0, 2
	res := sim2.Run()
	if res.Metrics.Autopilot == nil || res.Metrics.Autopilot.InitialK != ck.Autopilot.K {
		t.Fatalf("resumed metrics lost the adapted k: %+v", res.Metrics.Autopilot)
	}
}

// TestResumeWithoutAutopilotState: a pre-autopilot checkpoint (nil state)
// resumes an autopilot config from the config's own k — no crash, fresh
// controller.
func TestResumeWithoutAutopilotState(t *testing.T) {
	cfg := autopilotTestConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 1, 1
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	ck := sim.Checkpoint()
	ck.Autopilot = nil
	sim2, err := Resume(ck)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim2.ClusterK(); got != cfg.ClusterK {
		t.Fatalf("resumed k = %d, want config's %d", got, cfg.ClusterK)
	}
}
