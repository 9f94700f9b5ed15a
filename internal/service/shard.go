package service

import (
	"context"
	"fmt"
	"os"

	"questgo/internal/core"
)

// runShard executes one attempt of one shard: fresh from the shard config,
// or resumed from the checkpoint a previous interrupted attempt left
// behind. On interruption (ctx canceled mid-run) it persists a resume point
// and returns the context error; the queue decides whether to reschedule.
//
// Recovery preserves the exact trajectory. Two facts make that possible:
//
//   - Warmup is incrementally resumable: the chain state after warmup sweep
//     w plus "warm-w more warmup sweeps, then the full measurement
//     schedule" reproduces the uninterrupted run exactly (measurements all
//     happen later).
//
//   - The measurement segment is atomic: measurement samples accumulate in
//     memory and die with the worker, so a fault mid-measurement resumes
//     from the chain state captured at the warmup/measurement boundary and
//     replays the whole measurement segment. The chain is deterministic
//     from that state, so the replayed samples — and therefore the
//     aggregated observables — are bitwise identical to an undisturbed run.
func (s *Server) runShard(ctx context.Context, j *job, sh *shardState) (*core.Results, error) {
	var (
		sim *core.Simulation
		cfg = sh.cfg
		err error
	)
	if _, statErr := os.Stat(sh.ckptPath); statErr == nil {
		ck, lerr := core.LoadCheckpoint(sh.ckptPath)
		if lerr != nil {
			return nil, fmt.Errorf("shard checkpoint: %w", lerr)
		}
		// Job ids restart with every server, so a reused CheckpointDir can
		// hold another job's file at this path. Only the remaining warmup
		// schedule (adjusted at save time below) may differ from the shard's
		// own config; anything else is a foreign file and the shard starts
		// fresh.
		own := ck.Config
		own.WarmSweeps = sh.cfg.WarmSweeps
		if own == sh.cfg {
			if sim, err = core.Resume(ck); err != nil {
				return nil, fmt.Errorf("shard resume: %w", err)
			}
			cfg = ck.Config
		} else {
			_ = os.Remove(sh.ckptPath) // best effort: a finished run removes it again
		}
	}
	if sim == nil {
		if sim, err = core.New(sh.cfg); err != nil {
			return nil, err
		}
	}

	// measStart is the resume point for faults inside the atomic
	// measurement segment: the chain state with warmup fully consumed.
	var measStart *core.Checkpoint
	if cfg.WarmSweeps == 0 {
		measStart = sim.Checkpoint()
	}
	var lastStage string
	var lastSweep int
	interrupted := false
	cb := func(p core.Progress) {
		lastStage, lastSweep = p.Stage, p.Sweep
		if p.Stage == "warmup" && p.Sweep == p.Total {
			ck := sim.Checkpoint()
			ck.Config.WarmSweeps = 0
			measStart = ck
		}
		s.shardProgress(j, sh, p)
		if hook := s.opts.FaultHook; hook != nil && !interrupted && hook(j.id, sh.idx, p.Sweep) {
			// Kill this worker: cancel only the shard's run context. The
			// cancel takes effect at the next sweep boundary, exactly like an
			// external SIGKILL between sweeps.
			interrupted = true
			sh.interrupt()
		}
	}
	res, runErr := sim.RunContext(ctx, cb)
	if runErr == nil {
		_ = os.Remove(sh.ckptPath) // stale resume point, if any
		// A resumed attempt ran a shrunken schedule; the result's provenance
		// is the shard's full original config.
		res.Config = sh.cfg
		return res, nil
	}
	if ctx.Err() == nil {
		return nil, runErr
	}

	// Interrupted between sweeps: persist the resume point.
	var ck *core.Checkpoint
	if lastStage == "warmup" && lastSweep < cfg.WarmSweeps {
		ck = sim.Checkpoint()
		ck.Config.WarmSweeps = cfg.WarmSweeps - lastSweep
	} else if lastStage == "" && measStart == nil {
		// Killed before the first sweep: resume is a fresh start.
		ck = sim.Checkpoint()
	} else {
		// Warmup finished (possibly exactly at the boundary) or measurement
		// underway: the measurement segment restarts whole.
		ck = measStart
	}
	if serr := ck.Save(sh.ckptPath); serr != nil {
		// Deliberately not %w on runErr: without a saved resume point this is
		// a real failure, and wrapping the context error would make the queue
		// classify it as a resumable interruption.
		return nil, fmt.Errorf("shard checkpoint save: %v (after %v)", serr, runErr)
	}
	return nil, runErr
}

// interrupt cancels the shard's current run context, if any. Safe to call
// from the progress callback (the callback runs on the worker goroutine
// that owns runCancel for the duration of the attempt).
func (sh *shardState) interrupt() {
	if sh.runCancel != nil {
		sh.runCancel()
	}
}

// shardProgress folds a per-sweep progress report into the shard status and
// emits a throttled progress event (about 16 per stage, plus the last sweep
// of each stage).
func (s *Server) shardProgress(j *job, sh *shardState, p core.Progress) {
	step := p.Total / 16
	if step < 1 {
		step = 1
	}
	emit := p.Sweep%step == 0 || p.Sweep == p.Total
	j.mu.Lock()
	sh.stage, sh.sweep, sh.total = p.Stage, p.Sweep, p.Total
	if emit {
		j.emit(Event{Type: "progress", Shard: sh.idx, Stage: p.Stage, Sweep: p.Sweep, Total: p.Total})
	}
	j.mu.Unlock()
}
