package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"questgo/internal/obs"
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
	} {
		bad := *ck
		tc.mutate(&bad)
		if sim, err := Resume(&bad); err == nil || sim != nil {
			t.Errorf("%s: Resume returned (%v, %v), want an error", tc.name, sim, err)
		}
	}
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

// FuzzResumeCheckpoint feeds arbitrary bytes through ReadCheckpoint and,
// when they decode to a chain no larger than 4x4 with L <= 40, through
// Resume: the result must be an error or a simulation, never a panic. The
// seeds are a valid 2x2 checkpoint and its twin with an all-zero RNG state.
func FuzzResumeCheckpoint(f *testing.F) {
	cfg := DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.L, cfg.ClusterK = 2, 2, 8, 4
	sim, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	ck := sim.Checkpoint()
	for _, state := range [][4]uint64{ck.RngState, {}} {
		seed := *ck
		seed.RngState = state
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
	})
}
