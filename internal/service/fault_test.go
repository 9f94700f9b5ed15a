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
//   - kill #2 at callback 14 = measurement sweep 6 of 16: the checkpoint
//     carries the measurement so far, so resume continues with measurement
//     sweep 7 instead of replaying the segment.
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
// behind: a valid core checkpoint of the shard's own config at its place in
// the warm-up, consumable by a second attempt that finishes the shard with
// the exact uninterrupted physics.
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
	if ck.Config != cfg {
		t.Errorf("checkpoint config = %+v, want the shard's %+v", ck.Config, cfg)
	}
	if ck.Sweeps != 3 || ck.Meas != nil {
		t.Errorf("checkpoint at sweep %d with measurement %v, want sweep 3 of the warm-up", ck.Sweeps, ck.Meas)
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

// TestShardProgressNeverRunsBackwards: a shard killed once in warm-up and
// once in measurement reports its place in the run's own schedule across
// the restarts — every progress event is at or past the one before it in
// (stage, sweep), each against the config's WarmSweeps or MeasSweeps, and
// the resumed attempts report no sweep twice.
func TestShardProgressNeverRunsBackwards(t *testing.T) {
	cfg := fastConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 8, 16
	var calls atomic.Int64
	svc, err := New(Options{
		Workers:       1,
		CheckpointDir: t.TempDir(),
		FaultHook: func(jobID string, shard, sweep int) bool {
			n := calls.Add(1)
			return n == 4 || n == 14 // warm-up sweep 4, measurement sweep 6
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
	j := newJob("jtest", req, cfg.Hash(), svc.ckptDir)
	sh := j.shards[0]
	for attempt := 1; ; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		sh.runCancel = cancel
		_, err := svc.runShard(ctx, j, sh)
		cancel()
		if err == nil {
			break
		}
		if attempt == 3 {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
	}
	stage := map[string]int{"warmup": 0, "measure": 1}
	total := map[string]int{"warmup": cfg.WarmSweeps, "measure": cfg.MeasSweeps}
	last, n := [2]int{-1, 0}, 0
	for _, e := range j.events {
		if e.Type != "progress" {
			continue
		}
		n++
		at := [2]int{stage[e.Stage], e.Sweep}
		if at[0] < last[0] || at[0] == last[0] && at[1] <= last[1] {
			t.Errorf("progress %s %d/%d after %v", e.Stage, e.Sweep, e.Total, last)
		}
		if e.Total != total[e.Stage] {
			t.Errorf("progress %s %d/%d: total is not the config's %d", e.Stage, e.Sweep, e.Total, total[e.Stage])
		}
		last = at
	}
	if n != cfg.WarmSweeps+cfg.MeasSweeps || calls.Load() != int64(n) {
		t.Errorf("%d progress events over %d sweeps, want one a sweep of %d", n, calls.Load(), cfg.WarmSweeps+cfg.MeasSweeps)
	}
}

// TestShardCheckpointSaveFailure: a shard killed mid-run whose checkpoint
// cannot be written (a directory squats on its temp name) fails the job
// with the save error at once, without a restart: there is nothing to
// resume from.
func TestShardCheckpointSaveFailure(t *testing.T) {
	ckptDir := t.TempDir()
	if err := os.Mkdir(filepath.Join(ckptDir, "j000001-shard0000.ckpt.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	svc, cl := newTestServer(t, Options{
		Workers:       1,
		CheckpointDir: ckptDir,
		FaultHook:     func(jobID string, shard, sweep int) bool { return sweep == 2 },
	})
	st, err := cl.Submit(context.Background(), JobRequest{Config: fastConfig(), NoCache: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID != "j000001" {
		t.Fatalf("first job id = %s, the planted directory is not at its path", st.ID)
	}
	if _, err := cl.WaitResult(context.Background(), st.ID); err == nil {
		t.Fatal("a shard whose checkpoint save fails must fail the job")
	}
	final, err := cl.Status(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "shard checkpoint save") {
		t.Errorf("final state = %s (error %q), want failed with the save error", final.State, final.Error)
	}
	if got := svc.Stats().ShardRestarts; got != 0 {
		t.Errorf("restart counter = %d, want 0 (a failed save is not a resumable interruption)", got)
	}
}
