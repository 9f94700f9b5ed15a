package service

import (
	"context"
	"testing"

	"questgo/internal/core"
)

// runShardResult computes shard i's result directly (the same derivation
// newJob uses).
func runShardResult(t *testing.T, cfg core.Config, i int) *core.Results {
	t.Helper()
	cfg.Seed = core.WalkerSeed(cfg.Seed, i)
	r, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("shard %d run: %v", i, err)
	}
	return r
}

// TestAggregatorOrderIndependence: the final merge does not depend on the
// order shards land in.
func TestAggregatorOrderIndependence(t *testing.T) {
	cfg := fastConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 6
	rs := []*core.Results{
		runShardResult(t, cfg, 0),
		runShardResult(t, cfg, 1),
		runShardResult(t, cfg, 2),
	}

	inOrder := NewAggregator(3)
	for i, r := range rs {
		inOrder.Land(i, r)
	}
	scrambled := NewAggregator(3)
	for _, i := range []int{2, 0, 1} {
		scrambled.Land(i, rs[i])
	}

	a, err := inOrder.Final()
	if err != nil {
		t.Fatalf("final: %v", err)
	}
	b, err := scrambled.Final()
	if err != nil {
		t.Fatalf("final: %v", err)
	}
	if string(resultsBytes(t, a)) != string(resultsBytes(t, b)) {
		t.Error("merge depends on landing order")
	}
}

// TestAggregatorFinalMergesMetrics: a 2-shard job's document carries the
// sum of its shards' phase times (it used to carry no metrics at all), and a
// 1-shard job is still the shard's own Results.
func TestAggregatorFinalMergesMetrics(t *testing.T) {
	cfg := fastConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 6
	r0, r1 := runShardResult(t, cfg, 0), runShardResult(t, cfg, 1)

	two := NewAggregator(2)
	two.Land(1, r1)
	two.Land(0, r0)
	m, err := two.Final()
	if err != nil {
		t.Fatalf("final: %v", err)
	}
	if m.Metrics == nil || len(m.Metrics.PhaseMS) != len(r0.Metrics.PhaseMS) {
		t.Fatalf("merged metrics %+v", m.Metrics)
	}
	for k, ms := range m.Metrics.PhaseMS {
		if want := r0.Metrics.PhaseMS[k] + r1.Metrics.PhaseMS[k]; ms != want || ms == 0 {
			t.Errorf("merged phase_ms[%s] = %v, want the shards' sum %v", k, ms, want)
		}
	}
	if got, want := m.Metrics.Ops.Sweeps, r0.Metrics.Ops.Sweeps+r1.Metrics.Ops.Sweeps; got != want {
		t.Errorf("merged sweeps = %d, want %d", got, want)
	}

	one := NewAggregator(1)
	one.Land(0, r0)
	if m, err := one.Final(); err != nil || m != r0 {
		t.Fatalf("1-shard final = %p, %v; want the shard's own %p", m, err, r0)
	}
}

func TestAggregatorPartialEstimate(t *testing.T) {
	cfg := fastConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 6
	a := NewAggregator(2)
	if a.Estimate() != nil {
		t.Error("estimate before any shard landed")
	}
	if _, err := a.Final(); err == nil {
		t.Error("final before all shards landed must error")
	}

	r0 := runShardResult(t, cfg, 0)
	a.Land(0, r0)
	e := a.Estimate()
	if e == nil || e.Shards != 1 {
		t.Fatalf("estimate after one shard: %+v", e)
	}
	// One shard: its own errors pass through.
	if e.Density != r0.Density || e.DensityErr != r0.DensityErr {
		t.Errorf("single-shard estimate not a passthrough: %+v vs %+v", e, r0)
	}

	a.Land(1, runShardResult(t, cfg, 1))
	e = a.Estimate()
	if e.Shards != 2 {
		t.Fatalf("estimate shards = %d", e.Shards)
	}
	if e.DensityErr < 0 {
		t.Errorf("negative cross-shard error: %+v", e)
	}
	if _, err := a.Final(); err != nil {
		t.Errorf("final with all shards landed: %v", err)
	}
}

func TestAggregatorDoubleLandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("double land did not panic")
		}
	}()
	a := NewAggregator(1)
	a.Land(0, &core.Results{})
	a.Land(0, &core.Results{})
}

// TestTerminalEstimateEqualsResult: the estimate on a finished job's terminal
// event and status is the result document's own numbers, field for field —
// one cross-shard merge, not two that can disagree (energy_err was the
// spread of shard energies in the stream and kinetic_err + potential_err in
// the document).
func TestTerminalEstimateEqualsResult(t *testing.T) {
	cfg := fastConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 6
	_, cl := newTestServer(t, Options{Workers: 2})
	for _, shards := range []int{2, 3} {
		st, err := cl.Submit(context.Background(), JobRequest{Config: cfg, Shards: shards, NoCache: true})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		res, err := cl.WaitResult(context.Background(), st.ID)
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
		r := res.Results
		want := Estimate{
			SchemaVersion: JobSchemaVersion, Shards: shards,
			Density: r.Density, DensityErr: r.DensityErr,
			DoubleOcc: r.DoubleOcc, DoubleOccErr: r.DoubleOccErr,
			Energy: r.Energy, EnergyErr: r.EnergyErr,
			SAF: r.SAF, SAFErr: r.SAFErr,
			AvgSign: r.AvgSign,
		}
		var last Event
		if err := cl.Stream(context.Background(), st.ID, func(e Event) bool { last = e; return true }); err != nil {
			t.Fatalf("stream: %v", err)
		}
		if !last.terminal() || last.Partial == nil || *last.Partial != want {
			t.Errorf("%d shards: terminal event %+v\n carries %+v\n result is %+v", shards, last, last.Partial, want)
		}
		final, err := cl.Status(context.Background(), st.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if final.Partial == nil || *final.Partial != want {
			t.Errorf("%d shards: status estimate %+v, result is %+v", shards, final.Partial, want)
		}
	}
}
