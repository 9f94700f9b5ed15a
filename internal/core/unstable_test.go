package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"questgo/internal/blas"
	"questgo/internal/check"
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/measure"
	"questgo/internal/update"
)

// unstableConfig is the low-temperature 4x4 chain (U = 8, beta = 20,
// L = 200) on which clustering k slices per wrap run leaves the stable
// regime: k = 20 drifts past MaxStableWrapDrift within a sweep, k = 200
// overflows it.
func unstableConfig(k, devices int) Config {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.U, cfg.Mu, cfg.Beta, cfg.L = 4, 4, 8, 0, 20, 200
	cfg.WarmSweeps, cfg.MeasSweeps, cfg.ClusterK = 2, 4, k
	if devices > 0 {
		cfg.Devices, cfg.UseGraphs = devices, true
	}
	return cfg
}

// TestRunFailsUnstable: Run returns an *ErrUnstable, and no Results, for a
// chain whose wrap drift leaves the stable regime, on the host and on two
// simulated devices with command graphs; the same chain under the
// autopilot (which shrinks k in response) completes. Under qmcdebug the
// sanitizer stops the k = L chain first.
func TestRunFailsUnstable(t *testing.T) {
	for _, devices := range []int{0, 2} {
		for _, k := range []int{20, 200} {
			if check.Enabled && k == 200 {
				// The qmcdebug sanitizer's drift tolerance (5e-2) stops
				// this chain inside its first sweep, before Run's check.
				if msg := panicMessage(func() { _, _ = Run(context.Background(), unstableConfig(k, devices)) }); !strings.Contains(msg, "drift") {
					t.Fatalf("devices=%d k=%d under qmcdebug: panic %q, want the sanitizer's drift panic", devices, k, msg)
				}
				continue
			}
			res, err := Run(context.Background(), unstableConfig(k, devices))
			var u *ErrUnstable
			if !errors.As(err, &u) || res != nil {
				t.Fatalf("devices=%d k=%d: Run returned %v, %v; want nil results and an *ErrUnstable", devices, k, res != nil, err)
			}
			if u.Drift <= MaxStableWrapDrift || u.Sweep < 1 || !strings.Contains(u.Error(), "wrap drift") {
				t.Errorf("devices=%d k=%d: %+v: want the drift past %g named after a sweep", devices, k, u, MaxStableWrapDrift)
			}
		}
		cfg := unstableConfig(20, devices)
		cfg.Autopilot, cfg.StabilityCheckEvery = true, 2
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("devices=%d: k=20 under the autopilot: %v", devices, err)
		}
		if res.MaxWrapDrift <= MaxStableWrapDrift || math.Abs(res.AvgSign-1) > 1e-12 {
			t.Errorf("devices=%d: autopilot run: drift %g, sign %g; want a drift past %g the autopilot answered, and sign 1",
				devices, res.MaxWrapDrift, res.AvgSign, MaxStableWrapDrift)
		}
		// It completes because the controller answered the drift: hold the
		// shrink itself, not only the completion.
		if ap := res.Metrics.Autopilot; ap.Shrinks < 1 || ap.FinalK >= 20 {
			t.Errorf("devices=%d: autopilot run did not shrink k = 20: %+v", devices, ap)
		}
	}
}

// panicMessage runs f and returns what it panicked with, "" if it returned.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestCheckStableSign: a negative sign trips the check only on a model
// whose weight cannot be negative.
func TestCheckStableSign(t *testing.T) {
	for _, tc := range []struct {
		name   string
		edit   func(*Config)
		unsafe bool
	}{
		{"half filling", func(*Config) {}, true},
		{"attractive, doped", func(c *Config) { c.U, c.Mu = -4, 0.5 }, true},
		{"doped", func(c *Config) { c.Mu = 0.5 }, false},
		{"t'", func(c *Config) { c.TPrime = -0.2 }, false},
		{"odd Nx", func(c *Config) { c.Nx = 3 }, false},
	} {
		cfg := DefaultConfig()
		cfg.Beta, cfg.L = 1, 8
		tc.edit(&cfg)
		sim, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := sim.checkStable(1); err != nil {
			t.Fatalf("%s: a fresh chain failed the check: %v", tc.name, err)
		}
		sim.sweeper.SetSign(-1)
		err = sim.checkStable(1)
		var u *ErrUnstable
		if got := errors.As(err, &u); got != tc.unsafe {
			t.Errorf("%s: negative sign gave %v, want an *ErrUnstable: %v", tc.name, err, tc.unsafe)
		}
	}
	if signFree(Config{U: 4, Mu: 0, Nx: 4, Ny: 4}) != true || signFree(Config{U: 4, Mu: 0, Nx: 4, Ny: 5}) {
		t.Errorf("signFree: half filling needs both extents even")
	}
}

// negIBackend builds every cluster as -I and wraps and flushes nothing:
// with one cluster per chain, I + B is singular at every boundary.
type negIBackend struct{}

func (negIBackend) Cluster(dst *mat.Dense, _ *hubbard.Field, _ hubbard.Spin, _, _ int) {
	dst.SetIdentity()
	dst.Scale(-1)
}
func (negIBackend) Wrap(*mat.Dense, *hubbard.Field, hubbard.Spin, int) {}
func (negIBackend) Flush(_, _, _ *mat.Dense, _, _ int)                 {}

// TestCheckStableSingular: a chain whose stratified refresh met a singular
// I + B...B fails the check with an *ErrUnstable whose reason says so. The
// singular chain is a sweeper over
// negIBackend put in the simulation's place; its spins run serially, so
// under qmcdebug the sanitizer's panic on the non-finite G reaches this
// goroutine.
func TestCheckStableSingular(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Beta, cfg.L = 1, 8
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(*hubbard.Propagator, hubbard.Spin, int) update.Backend { return negIBackend{} }
	build := func() {
		sim.sweeper = update.NewSweeperOn(sim.prop, sim.field, sim.rng, update.Options{ClusterK: 8, SerialSpins: true}, mk)
	}
	if check.Enabled {
		if msg := panicMessage(build); !strings.Contains(msg, "greens.") {
			t.Fatalf("under qmcdebug: panic %q, want the sanitizer's", msg)
		}
		return
	}
	build()
	if !errors.Is(sim.sweeper.Err(), lapack.ErrSingular) {
		t.Fatalf("sweeper over -I clusters: Err() = %v, want lapack.ErrSingular", sim.sweeper.Err())
	}
	err = sim.checkStable(1)
	var u *ErrUnstable
	if !errors.As(err, &u) || !strings.Contains(u.Reason, "singular") {
		t.Fatalf("checkStable = %v, want an *ErrUnstable with a singular reason", err)
	}
}

// nanWrapUp is the host backend that, once on is set, writes one NaN into
// the up sector's wrapped G at its next wrap and turns itself off.
type nanWrapUp struct {
	*greens.Wrapper
	on *bool
}

func (b nanWrapUp) Wrap(g *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, s int) {
	b.Wrapper.Wrap(g, f, sigma, s)
	if *b.on && sigma == hubbard.Up {
		g.Data[0], *b.on = math.NaN(), false
	}
}

func (nanWrapUp) Flush(g, u, w *mat.Dense, m, _ int) {
	blas.Gemm(false, true, 1, u.View(0, 0, u.Rows, m), w.View(0, 0, w.Rows, m), 1, g)
}

// TestCheckStableNaNDrift: a sweep whose wrapped G went NaN fails the check
// naming the drift, also after a regular sweep follows it. Under qmcdebug
// the GEMM sanitizer stops the sweep first.
func TestCheckStableNaNDrift(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Beta, cfg.L, cfg.ClusterK = 2, 2, 1, 8, 4
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	on := false
	mk := func(p *hubbard.Propagator, _ hubbard.Spin, _ int) update.Backend {
		return nanWrapUp{greens.NewWrapper(p), &on}
	}
	sim.sweeper = update.NewSweeperOn(sim.prop, sim.field, sim.rng,
		update.Options{ClusterK: 4, SerialSpins: true, Obs: sim.col}, mk)
	sim.sweeper.Sweep()
	if err := sim.checkStable(1); err != nil {
		t.Fatalf("regular sweep: %v", err)
	}
	on = true
	if check.Enabled {
		if msg := panicMessage(sim.sweeper.Sweep); !strings.Contains(msg, "blas.Gemm produced non-finite") {
			t.Fatalf("under qmcdebug: panic %q, want the GEMM sanitizer's", msg)
		}
		return
	}
	sim.sweeper.Sweep()
	sim.sweeper.Sweep()
	err = sim.checkStable(3)
	var u *ErrUnstable
	if !errors.As(err, &u) || !strings.Contains(u.Reason, "wrap drift is NaN") {
		t.Fatalf("checkStable = %v, want an *ErrUnstable naming the NaN drift", err)
	}
}

// TestSampleSusceptibilityChecked: the susceptibility sweeps take the same
// after-sweep step as Run's: a singular chain fails them with an
// *ErrUnstable naming the refresh, and a healthy one samples n finite
// susceptibilities.
func TestSampleSusceptibilityChecked(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Beta, cfg.L, cfg.WarmSweeps, cfg.MeasSweeps = 1, 8, 1, 1
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	chi, err := sim.SampleSusceptibility(3, 0)
	if err != nil || chi.Samples != 3 || math.IsNaN(chi.AF+chi.AFErr+chi.Uniform+chi.UniformErr) ||
		math.IsInf(chi.AF+chi.AFErr+chi.Uniform+chi.UniformErr, 0) {
		t.Fatalf("healthy chain: %+v, %v; want 3 finite samples", chi, err)
	}
	if check.Enabled {
		return // the singular sweeper's construction panics; TestCheckStableSingular holds that
	}
	mk := func(*hubbard.Propagator, hubbard.Spin, int) update.Backend { return negIBackend{} }
	sim.sweeper = update.NewSweeperOn(sim.prop, sim.field, sim.rng, update.Options{ClusterK: 8, SerialSpins: true}, mk)
	chi, err = sim.SampleSusceptibility(2, 0)
	var u *ErrUnstable
	if !errors.As(err, &u) || chi != nil || !strings.Contains(u.Reason, "singular stratified refresh") || u.Sweep != 3 {
		t.Fatalf("singular chain: %+v, %v; want no result and an *ErrUnstable after sweep 3 naming the refresh", chi, err)
	}
}

// TestRunFailsSingularDisplaced: a measurement sweep whose displaced
// Green's function meets a singular two-sided inversion fails the run with
// an *ErrUnstable, "singular displaced Green's function", and no Results.
// The singular split is reached through the measureDisplaced seam, which
// here fails the second measurement sweep's call with the error a split's
// LU would keep (greens.TestSplitSingularReportsError holds the splits to
// it); the first call measures for real.
func TestRunFailsSingularDisplaced(t *testing.T) {
	defer func(f func(*lattice.Lattice, *hubbard.Propagator, *hubbard.Field, int, int, int) (*measure.Displaced, error)) {
		measureDisplaced = f
	}(measureDisplaced)
	calls := 0
	measureDisplaced = func(lat *lattice.Lattice, p *hubbard.Propagator, f *hubbard.Field, every, maxTau, k int) (*measure.Displaced, error) {
		if calls++; calls == 2 {
			return nil, fmt.Errorf("greens split: %w", lapack.ErrSingular)
		}
		return measure.MeasureDisplaced(lat, p, f, every, maxTau, k)
	}
	cfg := DefaultConfig()
	cfg.Beta, cfg.L = 1, 8
	cfg.WarmSweeps, cfg.MeasSweeps, cfg.MeasureDynamics = 1, 4, true
	res, err := Run(context.Background(), cfg)
	var u *ErrUnstable
	if !errors.As(err, &u) || res != nil {
		t.Fatalf("Run = %v, %v; want no Results and an *ErrUnstable", res, err)
	}
	if !strings.Contains(u.Reason, "singular displaced Green's function") || u.Sweep != 3 || calls != 2 {
		t.Fatalf("ErrUnstable after sweep %d (%d calls): %q", u.Sweep, calls, u.Reason)
	}
}
