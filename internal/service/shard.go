package service

import (
	"context"
	"fmt"
	"os"

	"questgo/internal/core"
)

// runShard executes one attempt of one shard: fresh from the shard config,
// or resumed from the checkpoint a previous interrupted attempt left
// behind. On interruption (ctx canceled mid-run) it saves the chain's
// checkpoint and returns the context error; the queue decides whether to
// reschedule. The checkpoint carries the run's place in the schedule and
// its measurement so far, so the next attempt continues the run — warm-up
// or measurement alike — and its Results are bitwise an undisturbed run's.
func (s *Server) runShard(ctx context.Context, j *job, sh *shardState) (*core.Results, error) {
	var sim *core.Simulation
	if _, statErr := os.Stat(sh.ckptPath); statErr == nil {
		ck, err := core.LoadCheckpoint(sh.ckptPath)
		if err != nil {
			return nil, fmt.Errorf("shard checkpoint: %w", err)
		}
		// Job ids restart with every server, so a reused CheckpointDir can
		// hold another job's file at this path: the shard starts fresh.
		if ck.Config != sh.cfg {
			_ = os.Remove(sh.ckptPath) // best effort: a finished run removes it again
		} else if sim, err = core.Resume(ck); err != nil {
			return nil, fmt.Errorf("shard resume: %w", err)
		}
	}
	if sim == nil {
		var err error
		if sim, err = core.New(sh.cfg); err != nil {
			return nil, err
		}
	}

	res, runErr := sim.RunContext(ctx, func(p core.Progress) {
		s.shardProgress(j, sh, p)
		if hook := s.opts.FaultHook; hook != nil && hook(j.id, sh.idx, p.Sweep) {
			// Kill this worker: cancel only the shard's run context, which
			// the worker owns for the attempt. The cancel takes effect at the
			// next sweep boundary, exactly like an external SIGKILL between
			// sweeps, so no sweep of this attempt consults the hook again.
			sh.runCancel()
		}
	})
	if runErr == nil {
		_ = os.Remove(sh.ckptPath) // stale resume point, if any
		return res, nil
	}
	if ctx.Err() == nil {
		return nil, runErr
	}
	if serr := sim.Checkpoint().Save(sh.ckptPath); serr != nil {
		// Deliberately not %w on runErr: without a saved resume point this is
		// a real failure, and wrapping the context error would make the queue
		// classify it as a resumable interruption.
		return nil, fmt.Errorf("shard checkpoint save: %v (after %v)", serr, runErr)
	}
	return nil, runErr
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
