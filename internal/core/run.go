package core

import (
	"context"
	"fmt"
	"sync"

	"questgo/internal/obs"
)

// RunOption configures a package-level Run call.
type RunOption func(*runOptions)

type runOptions struct {
	progress func(Progress)
	walkers  int
}

// WithProgress registers a callback invoked after every sweep with the
// current position and a live phase-timing snapshot. With multiple walkers
// only the first walker reports, so the callback sees one monotonic stream.
func WithProgress(cb func(Progress)) RunOption {
	return func(o *runOptions) { o.progress = cb }
}

// WithWalkers runs n statistically independent Markov chains concurrently
// (seeds derived deterministically from Config.Seed) and merges their
// results; n <= 1 runs a single chain. All walkers share one metrics
// collector, so the merged Results carry run-exact op counts and a combined
// phase breakdown (whose coverage can exceed 1x wall — the walkers overlap).
func WithWalkers(n int) RunOption {
	return func(o *runOptions) { o.walkers = n }
}

// WalkerSeed derives the RNG seed of walker (or shard) w from a base seed:
// a fixed golden-ratio stride spreads the seeds far apart deterministically.
// This is the one seed-derivation rule of the whole system — Run's walker
// group and the service's shard fan-out both use it, so a 1-shard service
// job reproduces a direct single-walker Run bit for bit and an n-shard job
// reproduces Run(..., WithWalkers(n)).
func WalkerSeed(base uint64, w int) uint64 {
	return base + uint64(w)*0x9e3779b97f4a7c15
}

// Run is the unified entry point of the pipeline: it validates and builds
// the simulation, executes the schedule under ctx, and returns Results
// carrying the metrics document.
func Run(ctx context.Context, cfg Config, options ...RunOption) (*Results, error) {
	var ro runOptions
	for _, opt := range options {
		opt(&ro)
	}
	if ro.walkers > 1 && cfg.Autopilot {
		// Walkers share one collector, and a collector keeps one stability
		// window: it cannot give per-walker controllers their own sweeps.
		return nil, fmt.Errorf("core: autopilot supports a single walker, not %d", ro.walkers)
	}
	if ro.walkers <= 1 {
		sim, err := New(cfg)
		if err != nil {
			return nil, err
		}
		return sim.RunContext(ctx, ro.progress)
	}

	// Multi-walker: one shared collector baselines the op counters around
	// the whole group, so the merged deltas are exact even though the
	// counters are process-global.
	col := obs.New()
	results := make([]*Results, ro.walkers)
	errs := make([]error, ro.walkers)
	var wg sync.WaitGroup
	for w := 0; w < ro.walkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wcfg := cfg
			wcfg.Seed = WalkerSeed(cfg.Seed, w)
			sim, err := newWithCollector(wcfg, col)
			if err != nil {
				errs[w] = err
				return
			}
			var cb func(Progress)
			if w == 0 {
				cb = ro.progress
			}
			// runBody, not RunContext: walkers sharing one collector must
			// not re-baseline each other's window. The group's baseline is
			// the collector's construction above.
			results[w], errs[w] = sim.runBody(ctx, cb)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged, err := MergeResults(results)
	if err != nil {
		return nil, err
	}
	col.Finish()
	merged.Metrics = col.Metrics()
	return merged, nil
}
