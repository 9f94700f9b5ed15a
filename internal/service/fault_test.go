package service

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"questgo/internal/core"
)

// TestShardFaultRecoveryBitwise is the fault-handling acceptance test: a
// shard's worker is killed twice — once mid-warmup, once mid-measurement —
// the queue resumes it from checkpoint each time, and the final observables
// are bitwise identical to an uninterrupted direct run.
//
// The kill points are deterministic (a global sweep-callback counter), so
// the test exercises both recovery paths every run:
//
//   - kill #1 at callback 4 = warmup sweep 4 of 8: resume restores the
//     chain mid-warmup and warms the remaining 4 sweeps;
//   - kill #2 at callback 14 = measurement sweep 6 of the resumed attempt:
//     the measurement segment is atomic, so resume restarts it from the
//     state captured at the warmup/measurement boundary and replays all 16
//     measurement sweeps.
func TestShardFaultRecoveryBitwise(t *testing.T) {
	cfg := fastConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 8, 16

	want, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	ckptDir := t.TempDir()
	var calls atomic.Int64
	opts := Options{
		Workers:       1,
		MaxRestarts:   3,
		CheckpointDir: ckptDir,
		FaultHook: func(jobID string, shard, sweep int) bool {
			n := calls.Add(1)
			return n == 4 || n == 14
		},
	}
	_, cl := newTestServer(t, opts)

	st, err := cl.Submit(context.Background(), JobRequest{Config: cfg, NoCache: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res, err := cl.WaitResult(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}

	final, err := cl.Status(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if got := final.Shards[0].Restarts; got != 2 {
		t.Errorf("shard restarts = %d, want 2 (one warmup kill + one measurement kill)", got)
	}
	if got, wantB := resultsBytes(t, res.Results), resultsBytes(t, want); string(got) != string(wantB) {
		t.Errorf("recovered result differs from uninterrupted run:\n got %s\nwant %s", got, wantB)
	}

	// The shard's checkpoint file must be gone after success.
	left, err := filepath.Glob(filepath.Join(ckptDir, "*.ckpt"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(left) != 0 {
		t.Errorf("stale checkpoints left behind: %v", left)
	}
}

// TestStaleCheckpointIgnored: job ids restart at j000001 with every server,
// so a reused CheckpointDir can hold a dead server's file at a new shard's
// path. A checkpoint of another configuration must not be resumed into the
// job: the shard starts fresh and lands bitwise on the direct run.
func TestStaleCheckpointIgnored(t *testing.T) {
	cfg := fastConfig()
	want, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	other := cfg
	other.Nx, other.Ny = 6, 6
	stale, err := core.New(other)
	if err != nil {
		t.Fatalf("stale sim: %v", err)
	}
	ckptDir := t.TempDir()
	path := filepath.Join(ckptDir, "j000001-shard0000.ckpt")
	if err := stale.Checkpoint().Save(path); err != nil {
		t.Fatalf("plant checkpoint: %v", err)
	}

	_, cl := newTestServer(t, Options{Workers: 1, CheckpointDir: ckptDir})
	st, err := cl.Submit(context.Background(), JobRequest{Config: cfg, NoCache: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID != "j000001" {
		t.Fatalf("first job id = %s, the planted file is not at its path", st.ID)
	}
	res, err := cl.WaitResult(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if got, wantB := resultsBytes(t, res.Results), resultsBytes(t, want); string(got) != string(wantB) {
		t.Errorf("job resumed a foreign checkpoint:\n got %s\nwant %s", got, wantB)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("foreign checkpoint left behind: %v", err)
	}
}

// TestShardFaultBudgetExhausted: a shard that keeps dying fails the job
// once MaxRestarts is spent, instead of looping forever.
func TestShardFaultBudgetExhausted(t *testing.T) {
	cfg := fastConfig()
	opts := Options{
		Workers:     1,
		MaxRestarts: 2,
		FaultHook: func(jobID string, shard, sweep int) bool {
			return true // every attempt dies at its first sweep
		},
	}
	svc, cl := newTestServer(t, opts)

	st, err := cl.Submit(context.Background(), JobRequest{Config: cfg, NoCache: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := cl.WaitResult(context.Background(), st.ID); err == nil {
		t.Fatal("job with a permanently dying shard must fail")
	}
	final, err := cl.Status(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if final.State != StateFailed || final.Error == "" {
		t.Errorf("final state = %s (error %q), want failed", final.State, final.Error)
	}
	// MaxRestarts=2 allows 3 attempts; every interruption increments the
	// counter, including the one that exhausts the budget.
	if svc.Stats().ShardRestarts != 3 {
		t.Errorf("restart counter = %d, want 3", svc.Stats().ShardRestarts)
	}
}

// TestShardErrorFailsImmediately: a genuine shard error (here: a corrupt
// checkpoint that fails to load) retires the job with the real error on the
// first attempt — it must not be misclassified as a worker interruption and
// burn through the restart budget re-reading the same broken file.
func TestShardErrorFailsImmediately(t *testing.T) {
	cfg := fastConfig()
	ckptDir := t.TempDir()
	svc, cl := newTestServer(t, Options{Workers: 1, MaxRestarts: 3, CheckpointDir: ckptDir})

	// Plant garbage where the first job's only shard looks for a resume
	// point (IDs are sequential, so the path is deterministic).
	bad := filepath.Join(ckptDir, "j000001-shard0000.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatalf("plant corrupt checkpoint: %v", err)
	}

	st, err := cl.Submit(context.Background(), JobRequest{Config: cfg, NoCache: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := cl.WaitResult(context.Background(), st.ID); err == nil {
		t.Fatal("job with a corrupt checkpoint must fail")
	}
	final, err := cl.Status(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "checkpoint") {
		t.Errorf("final state = %s (error %q), want failed with the checkpoint error", final.State, final.Error)
	}
	if final.Shards[0].State != StateFailed {
		t.Errorf("failing shard state = %s, want failed", final.Shards[0].State)
	}
	if got := svc.Stats().ShardRestarts; got != 0 {
		t.Errorf("restart counter = %d, want 0 (a real error is not an interruption)", got)
	}
	// The failed job's checkpoint files are cleaned up too.
	left, err := filepath.Glob(filepath.Join(ckptDir, "*.ckpt"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(left) != 0 {
		t.Errorf("failed job left checkpoints behind: %v", left)
	}
}

// TestCancelCleansCheckpoints: a canceled job's running shard saves a resume
// point on the way out; once it winds down the queue must remove it instead
// of leaking it into a long-lived checkpoint directory.
func TestCancelCleansCheckpoints(t *testing.T) {
	cfg := fastConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 5000, 5000 // long enough to cancel mid-run
	ckptDir := t.TempDir()
	_, cl := newTestServer(t, Options{Workers: 1, CheckpointDir: ckptDir})

	st, err := cl.Submit(context.Background(), JobRequest{Config: cfg, NoCache: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Let the shard take at least one sweep so the cancel interrupts a live
	// run (a pre-start cancel would never write a checkpoint at all).
	waitShard := func(pred func(ShardStatus) bool, what string) *JobStatus {
		deadline := time.Now().Add(30 * time.Second)
		for {
			cur, err := cl.Status(context.Background(), st.ID)
			if err != nil {
				t.Fatalf("status: %v", err)
			}
			if pred(cur.Shards[0]) {
				return cur
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; last status %+v", what, cur)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitShard(func(sh ShardStatus) bool { return sh.State == StateRunning && sh.Sweep > 0 }, "shard to start sweeping")
	if _, err := cl.Cancel(context.Background(), st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	// Checkpoint removal happens in the same critical section that retires
	// the shard, so once it reports non-running the directory must be clean.
	waitShard(func(sh ShardStatus) bool { return sh.State != StateRunning }, "shard to wind down")
	left, err := filepath.Glob(filepath.Join(ckptDir, "*.ckpt"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(left) != 0 {
		t.Errorf("canceled job left checkpoints behind: %v", left)
	}
}

// TestRunShardCheckpointContents drives runShard directly (no queue, no
// timing) and inspects the restart file an interrupted attempt leaves
// behind: a valid core checkpoint whose schedule has been advanced past the
// completed warmup sweeps, consumable by a second attempt that finishes the
// shard with the exact uninterrupted physics.
func TestRunShardCheckpointContents(t *testing.T) {
	cfg := fastConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 8, 16
	want, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	ckptDir := t.TempDir()
	var calls atomic.Int64
	svc, err := New(Options{
		Workers:       1,
		CheckpointDir: ckptDir,
		FaultHook: func(jobID string, shard, sweep int) bool {
			return calls.Add(1) == 3 // die at warmup sweep 3 of 8
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = svc.Close() })

	req := JobRequest{Config: cfg}
	if err := req.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	j := newJob("jtest", req, cfg.Hash(), ckptDir)
	sh := j.shards[0]

	// Attempt 1: the fault hook cancels the run context mid-warmup.
	ctx1, cancel1 := context.WithCancel(context.Background())
	sh.runCancel = cancel1
	if _, err := svc.runShard(ctx1, j, sh); err == nil {
		t.Fatal("interrupted attempt did not error")
	}
	cancel1()
	sh.runCancel = nil

	ck, err := core.LoadCheckpoint(sh.ckptPath)
	if err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	if got := ck.Config.WarmSweeps; got != cfg.WarmSweeps-3 {
		t.Errorf("checkpoint warmup schedule = %d, want %d", got, cfg.WarmSweeps-3)
	}
	if ck.Config.MeasSweeps != cfg.MeasSweeps {
		t.Errorf("checkpoint measurement schedule = %d, want %d", ck.Config.MeasSweeps, cfg.MeasSweeps)
	}
	if ck.Proposed == 0 {
		t.Errorf("checkpoint lost the Metropolis counters")
	}

	// Attempt 2 resumes from the file and must reproduce the direct run.
	res, err := svc.runShard(context.Background(), j, sh)
	if err != nil {
		t.Fatalf("resumed attempt: %v", err)
	}
	if got, wantB := resultsBytes(t, res), resultsBytes(t, want); string(got) != string(wantB) {
		t.Errorf("resumed shard differs from uninterrupted run:\n got %s\nwant %s", got, wantB)
	}
	if res.Acceptance != want.Acceptance {
		t.Errorf("acceptance not carried across resume: %v vs %v", res.Acceptance, want.Acceptance)
	}
	if _, err := os.Stat(sh.ckptPath); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after success: %v", err)
	}
}
