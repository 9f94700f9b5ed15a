package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"questgo/internal/autopilot"
	"questgo/internal/obs"
	"questgo/internal/stats"
)

func checkpointTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny = 4, 4
	cfg.U, cfg.Beta, cfg.L = 4, 2, 10
	cfg.ClusterK = 5
	cfg.WarmSweeps, cfg.MeasSweeps = 0, 1 // sweeps driven manually via Run
	return cfg
}

// TestResumeReproducesUninterruptedRun is the defining property: 4 + 6
// sweeps with a checkpoint in between must equal 10 straight sweeps,
// field for field and observable for observable.
func TestResumeReproducesUninterruptedRun(t *testing.T) {
	cfg := checkpointTestConfig()

	// Uninterrupted: 4 warmup + 6 measurement sweeps.
	ref := cfg
	ref.WarmSweeps, ref.MeasSweeps = 4, 6
	refRes, err := runOnce(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: 4 warmup sweeps, checkpoint, resume, 6 measurement
	// sweeps.
	first := cfg
	first.WarmSweeps, first.MeasSweeps = 3, 1 // 4 total sweeps, then stop
	sim1, err := New(first)
	if err != nil {
		t.Fatal(err)
	}
	sim1.Run()
	ck := sim1.Checkpoint()

	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ck2, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ck2.Config.WarmSweeps, ck2.Config.MeasSweeps = 0, 6
	sim2, err := Resume(ck2)
	if err != nil {
		t.Fatal(err)
	}
	res := sim2.Run()

	if res.DoubleOcc != refRes.DoubleOcc || res.Kinetic != refRes.Kinetic || res.SAF != refRes.SAF {
		t.Fatalf("resumed run diverged:\n  straight: docc=%v kin=%v\n  resumed:  docc=%v kin=%v",
			refRes.DoubleOcc, refRes.Kinetic, res.DoubleOcc, res.Kinetic)
	}
}

// TestResumeBuildsOneSweeper: restoring a chain costs the set-up New pays —
// one set of clusters, one stack, one initial refresh — not twice that. The
// op counters are process-global, so the two constructions are bracketed
// one after the other (no test in this package runs in parallel).
func TestResumeBuildsOneSweeper(t *testing.T) {
	for _, devices := range []int{0, 2} {
		cfg := checkpointTestConfig()
		cfg.Devices = devices
		before := obs.Counts()
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh := obs.Counts().Sub(before)
		ck := sim.Checkpoint()

		before = obs.Counts()
		if _, err := Resume(ck); err != nil {
			t.Fatal(err)
		}
		resumed := obs.Counts().Sub(before)
		ops := []obs.Op{obs.OpUDTSteps, obs.OpGemmCalls}
		if devices > 0 {
			ops = append(ops, obs.OpDeviceKernels)
		}
		for _, op := range ops {
			if resumed[op] != fresh[op] || fresh[op] == 0 {
				t.Errorf("devices=%d: Resume charged %d %s, New charged %d", devices, resumed[op], op, fresh[op])
			}
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	cfg := checkpointTestConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 1
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	ck := sim.Checkpoint()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Sign != ck.Sign || loaded.RngState != ck.RngState {
		t.Fatal("checkpoint state corrupted in file round trip")
	}
	for l := range ck.FieldH {
		for i := range ck.FieldH[l] {
			if loaded.FieldH[l][i] != ck.FieldH[l][i] {
				t.Fatal("field corrupted in file round trip")
			}
		}
	}
}

func TestResumeValidation(t *testing.T) {
	cfg := checkpointTestConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 1, 1
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	ck := sim.Checkpoint()

	bad := *ck
	bad.FieldH = bad.FieldH[:len(bad.FieldH)-1]
	if _, err := Resume(&bad); err == nil {
		t.Fatal("truncated field should fail")
	}

	bad2 := *ck
	bad2.FieldH = make([][]float64, len(ck.FieldH))
	copy(bad2.FieldH, ck.FieldH)
	row := append([]float64(nil), ck.FieldH[0]...)
	row[0] = 0.5
	bad2.FieldH[0] = row
	if _, err := Resume(&bad2); err == nil {
		t.Fatal("non-Ising field value should fail")
	}

	bad3 := *ck
	bad3.Config.Beta = -1
	if _, err := Resume(&bad3); err == nil {
		t.Fatal("invalid config should fail")
	}

	// Chain state no run can produce: an all-zero RNG state (xoshiro's
	// fixed point), a sign off +-1 (0 resumes into NaN observables), and
	// Metropolis counters with more accepts than proposals.
	for _, tc := range []struct {
		name   string
		mutate func(*Checkpoint)
	}{
		{"zero rng state", func(c *Checkpoint) { c.RngState = [4]uint64{} }},
		{"zero sign", func(c *Checkpoint) { c.Sign = 0 }},
		{"sign 0.5", func(c *Checkpoint) { c.Sign = 0.5 }},
		{"negative accepted", func(c *Checkpoint) { c.Accepted = -1 }},
		{"accepted > proposed", func(c *Checkpoint) { c.Accepted = c.Proposed + 1 }},
		{"negative drift", func(c *Checkpoint) { c.MaxWrapDrift = -1e-12 }},
		{"NaN drift", func(c *Checkpoint) { c.MaxWrapDrift = math.NaN() }},
		{"infinite drift", func(c *Checkpoint) { c.MaxWrapDrift = math.Inf(1) }},
	} {
		bad := *ck
		tc.mutate(&bad)
		if sim, err := Resume(&bad); err == nil || sim != nil {
			t.Errorf("%s: Resume returned (%v, %v), want an error", tc.name, sim, err)
		}
	}

	// A place in the schedule and a measurement no run can leave behind,
	// cut from a run of 2 + 4 sweeps measuring G(d, tau) at tau = 3, 6
	// after measurement sweep 2.
	cfg.L, cfg.ClusterK, cfg.MeasureDynamics = 12, 3, true
	cfg.WarmSweeps, cfg.MeasSweeps = 2, 4
	mid := checkpointAt(t, cfg, 4)
	if _, err := Resume(mid); err != nil {
		t.Fatalf("the unmutated checkpoint: %v", err)
	}
	pushed := func(width, n int) *stats.Accumulator {
		acc := stats.NewAccumulator(width)
		for range n {
			acc.Push(make([]float64, width), 1)
		}
		return acc
	}
	etWidth := len(mid.Meas.ET.TA)
	for _, tc := range []struct {
		name   string
		mutate func(*Checkpoint)
	}{
		{"negative position", func(c *Checkpoint) { c.Sweeps = -1 }},
		{"position at the schedule's end", func(c *Checkpoint) { c.Sweeps = 6 }},
		{"position past the schedule's end", func(c *Checkpoint) { c.Sweeps = 1 << 40 }},
		{"measurement during warm-up", func(c *Checkpoint) { c.Sweeps = 1 }},
		{"measurement at the end of warm-up", func(c *Checkpoint) { c.Sweeps = 2 }},
		{"no measurement after warm-up", func(c *Checkpoint) { c.Meas = nil }},
		{"no equal-time accumulator", func(c *Checkpoint) { c.Meas.ET = nil }},
		{"accumulator of the wrong width", func(c *Checkpoint) { c.Meas.ET = pushed(etWidth+1, 2) }},
		{"accumulator of the wrong count", func(c *Checkpoint) { c.Meas.ET = pushed(etWidth, 3) }},
		{"count without its levels", func(c *Checkpoint) { c.Meas.ET.N = 3 }},
		{"missing level", func(c *Checkpoint) { c.Meas.ET.Levels = c.Meas.ET.Levels[:1] }},
		{"short level vector", func(c *Checkpoint) { c.Meas.ET.Levels[1].SAB = c.Meas.ET.Levels[1].SAB[1:] }},
		{"short first sample", func(c *Checkpoint) { c.Meas.ET.KA = nil }},
		{"tau spacing off the grid", func(c *Checkpoint) { c.Meas.Every = 2 }},
		{"tau spacing zero", func(c *Checkpoint) { c.Meas.Every = 0 }},
		{"tau spacing past L/2", func(c *Checkpoint) { c.Meas.Every = 7 }},
		{"no G(d,tau) accumulator", func(c *Checkpoint) { c.Meas.Dyn = nil }},
		{"G(d,tau) accumulator without dynamics", func(c *Checkpoint) { c.Config.MeasureDynamics = false }},
		{"G(d,tau) accumulator of the wrong count", func(c *Checkpoint) { c.Meas.Dyn = pushed(len(c.Meas.Dyn.TA), 1) }},
	} {
		bad := decodeCopy(t, mid)
		tc.mutate(bad)
		if sim, err := Resume(bad); err == nil || sim != nil {
			t.Errorf("%s: Resume returned (%v, %v), want an error", tc.name, sim, err)
		}
	}
}

// decodeCopy is a deep copy of ck through its encoding.
func decodeCopy(t *testing.T, ck *Checkpoint) *Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLoadCheckpointMissing(t *testing.T) {
	if _, err := LoadCheckpoint("/no/such/file.ckpt"); err == nil {
		t.Fatal("expected error")
	}
}

func TestCheckpointIsDeepCopy(t *testing.T) {
	cfg := checkpointTestConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 1, 1
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	ck := sim.Checkpoint()
	before := ck.FieldH[0][0]
	sim.Run() // mutate the live field
	if ck.FieldH[0][0] != before {
		t.Fatal("checkpoint must not alias the live field")
	}
}

// TestCheckpointMeasurementIsDeepCopy: a checkpoint in mid-measurement
// shares no accumulator with the live run or with the simulations resumed
// from it: the run that goes on moves none of its numbers, and two resumes
// of one checkpoint finish with the same Results.
func TestCheckpointMeasurementIsDeepCopy(t *testing.T) {
	cfg := checkpointTestConfig()
	cfg.L, cfg.ClusterK, cfg.MeasureDynamics = 12, 3, true
	cfg.WarmSweeps, cfg.MeasSweeps = 1, 4
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ck *Checkpoint
	var saved string
	want, err := sim.RunContext(context.Background(), func(p Progress) {
		if p.Stage == "measure" && p.Sweep == 2 {
			ck = sim.Checkpoint()
			saved = fmt.Sprint(*ck.Meas.ET, *ck.Meas.Dyn)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(*ck.Meas.ET, *ck.Meas.Dyn); got != saved {
		t.Fatal("the run after the checkpoint moved its measurement")
	}
	for i := range 2 {
		resumed, err := Resume(ck)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := physicsDoc(t, resumed.Run()), physicsDoc(t, want); a != b {
			t.Fatalf("resume %d of one checkpoint:\n got %s\nwant %s", i+1, a, b)
		}
	}
}

// FuzzResumeCheckpoint feeds arbitrary bytes through ReadCheckpoint and,
// when they decode to a chain no larger than 4x4 with L <= 40, through
// Resume: the result must be an error or a simulation, never a panic. A
// resumed chain with at most 4 sweeps left runs to the end of its schedule,
// so a decoded measurement that passes Resume meets Push and Estimate. The
// seeds are a valid 2x2 checkpoint, its twin with an all-zero RNG state,
// and a checkpoint in mid-measurement with G(d, tau) measured.
func FuzzResumeCheckpoint(f *testing.F) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.L, cfg.ClusterK = 2, 2, 8, 4
	sim, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	ck := sim.Checkpoint()
	dyn := cfg
	dyn.WarmSweeps, dyn.MeasSweeps, dyn.MeasureDynamics, dyn.ClusterK = 1, 4, true, 2
	sim, err = New(dyn)
	if err != nil {
		f.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mid *Checkpoint
	sim.RunContext(ctx, func(p Progress) {
		if p.Stage == "measure" && p.Sweep == 2 {
			mid = sim.Checkpoint()
			cancel()
		}
	})
	zero := *ck
	zero.RngState = [4]uint64{}
	for _, seed := range []*Checkpoint{ck, &zero, mid} {
		var buf bytes.Buffer
		if err := seed.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		c := ck.Config
		if c.Nx > 4 || c.Ny > 4 || c.Layers > 4 || c.Nx*c.Ny*c.Layers > 16 || c.L > 40 || c.Devices > 2 {
			return // keep each input cheap; size is not what this target probes
		}
		sim, err := Resume(ck)
		if (err == nil) == (sim == nil) {
			t.Fatalf("Resume returned (%v, %v): want exactly one of a simulation and an error", sim, err)
		}
		if err != nil || c.WarmSweeps > 1<<20 || c.MeasSweeps > 1<<20 || c.WarmSweeps+c.MeasSweeps-ck.Sweeps > 4 {
			return
		}
		if _, err := sim.RunContext(context.Background(), nil); err != nil {
			var u *ErrUnstable
			if !errors.As(err, &u) {
				t.Fatalf("resumed run: %v", err)
			}
		}
	})
}

// physicsDoc is the canonical Results document of a run without its
// metrics: everything a resume must reproduce.
func physicsDoc(t *testing.T, r *Results) string {
	t.Helper()
	cp := *r
	cp.Metrics = nil
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return string(b)
}

// checkpointAt runs cfg from New and returns its checkpoint after sweep cut
// (warm-up included; 0 is before the first), taken from the progress
// callback of a run canceled there.
func checkpointAt(t *testing.T, cfg Config, cut int) *Checkpoint {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cut == 0 {
		return sim.Checkpoint()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ck *Checkpoint
	_, err = sim.RunContext(ctx, func(p Progress) {
		if at := p.Sweep + map[string]int{"warmup": 0, "measure": cfg.WarmSweeps}[p.Stage]; at == cut {
			ck = sim.Checkpoint()
			cancel()
		}
	})
	if ck == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cut at sweep %d: no checkpoint, run returned %v", cut, err)
	}
	return ck
}

// TestResumeEveryCut is the one resume rule: a checkpoint taken at any
// sweep of a run — 0 through W+M-1, the last warm-up sweep and every
// measurement sweep included — saved, loaded and resumed finishes with the
// uninterrupted run's Results, field for field apart from the metrics:
// acceptance, max_wrap_drift and gd_tau included. The rows measure
// G(d, tau) on the host and on two devices with command graphs, and run
// the autopilot on a chain whose clusters it shrinks.
func TestResumeEveryCut(t *testing.T) {
	dyn := checkpointTestConfig()
	dyn.Mu, dyn.L, dyn.ClusterK = 0.3, 12, 3
	dyn.WarmSweeps, dyn.MeasSweeps = 3, 4
	dyn.MeasureDynamics = true
	devices := dyn
	devices.Devices, devices.UseGraphs = 2, true
	pilot := unstableAutopilotConfig()
	pilot.WarmSweeps, pilot.MeasSweeps = 2, 3
	for _, row := range []struct {
		name string
		cfg  Config
	}{{"host, dynamics", dyn}, {"2 devices + graphs, dynamics", devices}, {"autopilot", pilot}} {
		name, cfg := row.name, row.cfg
		want, err := runOnce(cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "run.ckpt")
		for cut := 0; cut < cfg.WarmSweeps+cfg.MeasSweeps; cut++ {
			ck := checkpointAt(t, cfg, cut)
			if ck.Sweeps != cut || (ck.Meas != nil) != (cut > cfg.WarmSweeps) {
				t.Fatalf("%s: cut at %d: checkpoint at sweep %d, measurement %v", name, cut, ck.Sweeps, ck.Meas != nil)
			}
			if err := ck.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := Resume(loaded)
			if err != nil {
				t.Fatalf("%s: cut at %d: %v", name, cut, err)
			}
			got, err := sim.RunContext(context.Background(), nil)
			if err != nil {
				t.Fatalf("%s: cut at %d: resumed run: %v", name, cut, err)
			}
			if a, b := physicsDoc(t, got), physicsDoc(t, want); a != b {
				t.Errorf("%s: cut at %d: resumed Results differ from the uninterrupted run's:\n got %s\nwant %s", name, cut, a, b)
			}
			if sim.sweeps != 0 || sim.meas != nil {
				t.Errorf("%s: cut at %d: finished run left its place at sweep %d", name, cut, sim.sweeps)
			}
		}
		if want.Metrics.Autopilot != nil && want.Metrics.Autopilot.Shrinks == 0 {
			t.Errorf("%s: the controller never shrank k; the row does not cover an adapted resume", name)
		}
	}
}

// TestResumeCarriesMaxWrapDrift cuts a run after the sweep that reached its
// largest wrap drift: only a drift carried in the checkpoint can report it.
func TestResumeCarriesMaxWrapDrift(t *testing.T) {
	cfg := checkpointTestConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 3, 5
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var drift []float64 // the lifetime maximum after each sweep
	want, err := sim.RunContext(context.Background(), func(Progress) { drift = append(drift, sim.sweeper.MaxWrapDrift()) })
	if err != nil {
		t.Fatal(err)
	}
	cut := slices.Index(drift, want.MaxWrapDrift) + 1 // the sweep that reached it
	if cut < 1 || cut == len(drift) || drift[0] == 0 {
		t.Fatalf("drift after each sweep %v: no sweep before the last reaches the maximum %v", drift, want.MaxWrapDrift)
	}
	resumed, err := Resume(checkpointAt(t, cfg, cut))
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.RunContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxWrapDrift != want.MaxWrapDrift {
		t.Errorf("cut after sweep %d: resumed max wrap drift %v, uninterrupted %v", cut, got.MaxWrapDrift, want.MaxWrapDrift)
	}
}

// parentCheckpoint is the restart-file layout before checkpoints carried
// the drift, the place in the schedule and the measurement.
type parentCheckpoint struct {
	Config             Config
	FieldH             [][]float64
	RngState           [4]uint64
	Sign               float64
	Accepted, Proposed int64
	Autopilot          *autopilot.State
}

// TestResumeParentLayout: a restart file in the older layout decodes as a
// checkpoint between runs without a drift, and resumes as it did: a new run
// of the config's schedule from the saved chain.
func TestResumeParentLayout(t *testing.T) {
	cfg := autopilotTestConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	ck := sim.Checkpoint()
	var buf bytes.Buffer
	old := parentCheckpoint{ck.Config, ck.FieldH, ck.RngState, ck.Sign, ck.Accepted, ck.Proposed, ck.Autopilot}
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Sweeps != 0 || back.Meas != nil || back.MaxWrapDrift != 0 {
		t.Fatalf("older file decodes at sweep %d, measurement %v, drift %v", back.Sweeps, back.Meas, back.MaxWrapDrift)
	}
	ck.MaxWrapDrift = 0
	for _, c := range []*Checkpoint{ck, back} {
		if c.Sweeps != 0 || c.Meas != nil {
			t.Fatalf("a checkpoint after a finished run is at sweep %d", c.Sweeps)
		}
	}
	want, err := Resume(ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Resume(back)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := physicsDoc(t, got.Run()), physicsDoc(t, want.Run()); a != b {
		t.Errorf("older file resumes into another run:\n got %s\nwant %s", a, b)
	}
}

// TestSaveFailureLeavesNothing: Save into a path under a regular file
// (ENOTDIR, also as root) returns the error and leaves no file at the path
// or its temp name; a rename onto a directory fails and removes its temp
// file.
func TestSaveFailureLeavesNothing(t *testing.T) {
	sim, err := New(checkpointTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ck := sim.Checkpoint()
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(file, "run.ckpt")
	if err := ck.Save(path); !errors.Is(err, syscall.ENOTDIR) {
		t.Errorf("Save under a regular file returned %v, want ENOTDIR", err)
	}
	for _, p := range []string{path, path + ".tmp"} {
		if _, err := os.Lstat(p); err == nil {
			t.Errorf("failed Save left %s", p)
		}
	}
	sub := filepath.Join(dir, "sub")
	if err := os.MkdirAll(filepath.Join(sub, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(sub); err == nil {
		t.Errorf("Save onto a non-empty directory succeeded")
	}
	if _, err := os.Lstat(sub + ".tmp"); err == nil {
		t.Errorf("failed rename left %s.tmp", sub)
	}
}
