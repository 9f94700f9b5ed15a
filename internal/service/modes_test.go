package service

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"questgo/internal/core"
)

// modeDoc is the canonical JSON of a Results document with the execution
// keys of its config (serial_spins, devices, graphs — trajectory-invariant
// by contract) reset, and its metrics either dropped or stripped of the
// timing fields obs.Metrics declares nondeterministic.
func modeDoc(t *testing.T, r *core.Results, keepMetrics bool) string {
	t.Helper()
	cp := *r
	cp.Config.SerialSpins, cp.Config.Devices, cp.Config.UseGraphs = false, 0, false
	cp.Metrics = nil
	if keepMetrics && r.Metrics != nil {
		m := r.Metrics.WithoutTimings()
		cp.Metrics = &m
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return string(b)
}

// docDiff shows where two canonical documents first part: the common key
// path's tail and the two readings after it.
func docDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(i-60, 0)
	return fmt.Sprintf("...%s\n got ...%.80s\nwant ...%.80s", got[from:i], got[i:], want[i:])
}

// TestResultsBitwiseAcrossModes: one Results document per configuration,
// whatever executes it. Within an engine (the host kernels; one simulated
// device with and without command graphs; two with them) the whole document
// minus its timings is byte-identical across GOMAXPROCS 1/2/4 and forked or
// serial spins. Between core.Run and a one-shard dqmcd job, and across the
// engines, everything but the metrics is: the device's combined V G V^-1
// scaling kernel (Algorithm 7) rounds each element as the host's wrap
// write-back does, so even the drift of the wrapped copy against the
// stratified refresh (max_wrap_drift) is engine-independent. The config
// sits off half filling, where the two spin sectors' stability samples
// differ and their arrival order would show; it measures dynamics and
// samples the stack-vs-rebuild residual, so every section of the document
// is populated. The residual check runs beside the sweep: at cadence 1 it
// is joined at the next boundary, at cadence 3 (NC = 4) it stays in flight
// across an unprobed boundary and across the sweep's end, with the
// autopilot off and on, so the controller's inputs and decisions are held
// too. The 4x4 rows (N = 16) run their per-slice steps inline beside a
// forked boundary, and with them the stacks' roll and the boundary
// measurements beside the chain: with the check off no probe competes for
// the worker, and one of those rows checkpoints in mid-measurement and
// resumes from the checkpoint, whose document must equal the uninterrupted
// run's field for field. The 6x6
// row (N = 36, delay 8 so delay blocks fill in mid-slice) sits at update's
// crossover, where the steps and mid-slice flushes fork too.
func TestResultsBitwiseAcrossModes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, v := range []struct {
		nx, delay int
		every     int
		autopilot bool
		resume    bool
	}{
		{4, 0, 1, false, false}, {4, 0, 3, false, false}, {4, 0, 3, true, false},
		{4, 0, 0, false, false}, {4, 0, 0, false, true}, {6, 8, 1, false, false},
	} {
		cfg := core.DefaultConfig()
		cfg.Nx, cfg.Ny = v.nx, v.nx
		cfg.Mu, cfg.Beta, cfg.L, cfg.ClusterK = 0.5, 4, 40, 10
		cfg.WarmSweeps, cfg.MeasSweeps = 2, 4
		cfg.MeasureDynamics, cfg.StabilityCheckEvery, cfg.Autopilot = true, v.every, v.autopilot
		cfg.Seed = 13
		if v.delay > 0 {
			cfg.Delay = v.delay
		}
		variant := fmt.Sprintf("%dx%d, stability every %d, autopilot=%v", v.nx, v.nx, v.every, v.autopilot)
		run := func(c core.Config) (*core.Results, error) { return core.Run(context.Background(), c) }
		if v.resume {
			variant += ", checkpoint and resume"
			run = runResumed
		}
		resultsBitwiseAcrossModes(t, variant, cfg, run)
	}
}

// runResumed runs cfg, checkpoints from the progress callback after
// measurement sweep 2 — with the stacks' roll left to the next sweep — and
// finishes the run on the chain resumed from the checkpoint.
func runResumed(cfg core.Config) (*core.Results, error) {
	sim, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ck *core.Checkpoint
	_, err = sim.RunContext(ctx, func(p core.Progress) {
		if p.Stage == "measure" && p.Sweep == 2 {
			ck = sim.Checkpoint()
			cancel()
		}
	})
	if ck == nil {
		return nil, fmt.Errorf("no checkpoint taken: %v", err)
	}
	resumed, err := core.Resume(ck)
	if err != nil {
		return nil, err
	}
	return resumed.RunContext(context.Background(), nil)
}

func resultsBitwiseAcrossModes(t *testing.T, variant string, cfg core.Config, run func(core.Config) (*core.Results, error)) {
	t.Helper()
	var first []*core.Results // per engine, in its first mode
	var firstName []string
	for _, e := range []struct {
		name    string
		devices int
		graphs  bool
	}{{"host", 0, false}, {"1 device", 1, false}, {"1 device + graphs", 1, true}, {"2 devices + graphs", 2, true}} {
		var whole, wholeFrom string
		for _, procs := range []int{1, 2, 4} {
			for _, serial := range []bool{false, true} {
				mode := fmt.Sprintf("%s: %s, GOMAXPROCS=%d, serial spins=%v", variant, e.name, procs, serial)
				c := cfg
				c.Devices, c.UseGraphs, c.SerialSpins = e.devices, e.graphs, serial
				runtime.GOMAXPROCS(procs)
				res, err := run(c)
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				if doc := modeDoc(t, res, true); whole == "" {
					if (res.Metrics.Stability.StratResidualSamples == 0) != (cfg.StabilityCheckEvery == 0) {
						t.Errorf("%s: %d residual samples at cadence %d", mode, res.Metrics.Stability.StratResidualSamples, cfg.StabilityCheckEvery)
					}
					whole, wholeFrom = doc, mode
					first, firstName = append(first, res), append(firstName, e.name)
				} else if doc != whole {
					t.Errorf("%s: document minus timings differs from %s:\n%s", mode, wholeFrom, docDiff(doc, whole))
				}
			}
		}
	}
	for i := 1; i < len(first); i++ {
		if a, b := modeDoc(t, first[i], false), modeDoc(t, first[0], false); a != b {
			t.Errorf("%s: %s engine: document minus metrics differs from the host's:\n%s", variant, firstName[i], docDiff(a, b))
		}
	}

	_, cl := newTestServer(t, Options{Workers: 1})
	st, err := cl.Submit(context.Background(), JobRequest{Config: cfg})
	if err != nil {
		t.Fatalf("%s: submit: %v", variant, err)
	}
	job, err := cl.WaitResult(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("%s: wait: %v", variant, err)
	}
	res := job.Results
	if a, b := modeDoc(t, res, false), modeDoc(t, first[0], false); a != b {
		t.Errorf("%s: one-shard dqmcd job: document minus metrics differs from the host run's:\n%s", variant, docDiff(a, b))
	}
}
