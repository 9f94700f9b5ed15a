package parallel_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"questgo/internal/core"
	"questgo/internal/parallel"
)

// TestRunRegistersItsChain: every way a run passes through core's runBody
// registers the chain for exactly the run's lifetime. A registration leaked
// by a canceled or panicking run would halve the width of every later loop
// in the process, so the last run must get the worker again.
func TestRunRegistersItsChain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := core.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.L = 4, 4, 10
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 3
	newSim := func() *core.Simulation {
		sim, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := newSim().RunContext(ctx, func(core.Progress) {
		if n := parallel.Chains(); n != 1 {
			t.Errorf("%d chains registered during a run, want 1", n)
		}
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	if n := parallel.Chains(); n != 0 {
		t.Fatalf("%d chains registered after a canceled run", n)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("progress callback's panic did not propagate")
			}
		}()
		_, _ = newSim().RunContext(context.Background(), func(core.Progress) { panic("boom") })
	}()
	if n := parallel.Chains(); n != 0 {
		t.Fatalf("%d chains registered after a panicking run", n)
	}

	if n := parallel.CountHandoffs(func() { newSim().Run() }); n == 0 {
		t.Error("a fresh run after the failed ones made no hand-off")
	}
	if n := parallel.Chains(); n != 0 {
		t.Fatalf("%d chains registered after a completed run", n)
	}
}
