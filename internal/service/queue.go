package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// shardTask is one unit of worker-pool work: run (or resume) one shard of
// one job.
type shardTask struct {
	job   *job
	shard *shardState
}

// scheduler is the unbounded FIFO the worker pool drains. Interrupted
// shards re-enter at the front so a recovering job is not starved by a deep
// backlog of fresh work.
type scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	fifo   []*shardTask //qmc:guarded(mu)
	closed bool         //qmc:guarded(mu)
}

func newScheduler() *scheduler {
	s := &scheduler{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *scheduler) push(t *shardTask) {
	s.mu.Lock()
	s.fifo = append(s.fifo, t)
	s.mu.Unlock()
	s.cond.Signal()
}

func (s *scheduler) pushFront(t *shardTask) {
	s.mu.Lock()
	s.fifo = append([]*shardTask{t}, s.fifo...)
	s.mu.Unlock()
	s.cond.Signal()
}

// pop blocks for the next task; ok is false once the scheduler is closed
// and drained.
func (s *scheduler) pop() (*shardTask, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.fifo) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.fifo) == 0 {
		return nil, false
	}
	t := s.fifo[0]
	s.fifo = s.fifo[1:]
	return t, true
}

func (s *scheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.fifo)
}

func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Submit validates the request, consults the result cache, and either
// answers instantly from it or enqueues the job's shards on the worker
// pool. The returned status is the submission-time snapshot (terminal
// already for cache hits).
func (s *Server) Submit(req JobRequest) (*JobStatus, error) {
	if err := req.normalize(); err != nil {
		return nil, err
	}
	hash := req.Config.Hash()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: server is closed")
	}
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	j := newJob(id, req, hash, s.ckptDir)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.evictFinishedLocked()
	s.mu.Unlock()
	s.nSubmitted.Add(1)

	if !req.NoCache {
		if hit, ok := s.cache.get(req.cacheKey()); ok {
			s.nCacheHits.Add(1)
			j.mu.Lock()
			now := time.Now()
			j.state = StateDone
			j.cached = true
			j.started, j.finished = now, now
			// Serve the cached document under this job's identity.
			served := *hit
			served.ID = id
			served.Cached = true
			served.WallMS = 0
			j.result = &served
			for _, sh := range j.shards {
				sh.state = StateDone
			}
			j.emit(Event{Type: "state", Shard: -1, State: StateDone})
			st := j.status()
			j.mu.Unlock()
			return st, nil
		}
		s.nCacheMisses.Add(1)
	}

	j.mu.Lock()
	j.emit(Event{Type: "state", Shard: -1, State: StateQueued})
	st := j.status()
	j.mu.Unlock()
	for _, sh := range j.shards {
		s.sched.push(&shardTask{job: j, shard: sh})
	}
	return st, nil
}

// Status returns a job's current status document.
func (s *Server) Status(id string) (*JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status(), nil
}

// Result returns a finished job's result document; ErrNotDone while the job
// is still in flight.
func (s *Server) Result(id string) (*JobResult, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == StateDone:
		return j.result, nil
	case j.state.terminal():
		return nil, fmt.Errorf("service: job %s %s: %s", id, j.state, j.errMsg)
	default:
		return nil, ErrNotDone
	}
}

// ErrNotDone is returned by Result for a job still in flight (the HTTP
// layer maps it to 202 Accepted).
var ErrNotDone = fmt.Errorf("service: job is not finished")

// Cancel stops a job: queued shards never start, running shards stop at
// their next sweep boundary. Canceling a terminal job is a no-op.
func (s *Server) Cancel(id string) (*JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	if !j.state.terminal() {
		j.state = StateCanceled
		j.finished = time.Now()
		for _, sh := range j.shards {
			if !sh.state.terminal() && sh.state != StateRunning {
				sh.state = StateCanceled
			}
		}
		j.emit(Event{Type: "state", Shard: -1, State: StateCanceled})
		s.nCanceled.Add(1)
		j.cancel()
		s.maybeCleanupFiles(j)
	}
	st := j.status()
	j.mu.Unlock()
	return st, nil
}

// List returns every job's status in submission order.
func (s *Server) List() []*JobStatus {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]*JobStatus, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		out = append(out, j.status())
		j.mu.Unlock()
	}
	return out
}

func (s *Server) lookup(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("service: no such job %q", id)
	}
	return j, nil
}

// worker is one pool goroutine: it drains the scheduler until close.
func (s *Server) worker() {
	for {
		t, ok := s.sched.pop()
		if !ok {
			return
		}
		s.runTask(t)
	}
}

// runTask executes one shard attempt and folds the outcome back into the
// job: landed results feed the streaming aggregate, interruptions reschedule
// from checkpoint, failures and cancellations retire the job.
func (s *Server) runTask(t *shardTask) {
	j, sh := t.job, t.shard
	j.mu.Lock()
	if j.state.terminal() {
		if !sh.state.terminal() {
			sh.state = StateCanceled
		}
		s.maybeCleanupFiles(j)
		j.mu.Unlock()
		return
	}
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = time.Now()
		j.emit(Event{Type: "state", Shard: -1, State: StateRunning})
	}
	sh.state = StateRunning
	runCtx, cancel := context.WithCancel(j.ctx)
	sh.runCancel = cancel
	j.emit(Event{Type: "shard", Shard: sh.idx, State: StateRunning, Restarts: sh.restarts})
	j.mu.Unlock()

	s.nShardsRun.Add(1)
	res, err := s.runShard(runCtx, j, sh)
	// Classify the outcome before cancel(): afterwards runCtx.Err() is
	// non-nil unconditionally. A genuine interruption (fault hook, worker
	// kill) surfaces as the run context's Canceled error with a checkpoint
	// saved on the way out; any other error — checkpoint load/save failure,
	// core.New error — is a real shard failure and must not be retried.
	interrupted := runCtx.Err() != nil && errors.Is(err, context.Canceled)
	cancel()

	j.mu.Lock()
	defer j.mu.Unlock()
	sh.runCancel = nil
	switch {
	case err == nil:
		if j.state.terminal() {
			// The job retired (canceled, or failed via a sibling shard) while
			// this one was finishing: drop the result — landing it would keep
			// mutating a terminal status and push events past the terminal
			// "state" line stream readers stop at.
			sh.state = StateCanceled
			s.maybeCleanupFiles(j)
			return
		}
		sh.state = StateDone
		j.agg.Land(sh.idx, res)
		j.emit(Event{Type: "partial", Shard: sh.idx, State: StateDone, Partial: j.agg.Estimate()})
		if j.agg.Landed() == len(j.shards) && j.state == StateRunning {
			s.finishJob(j)
		}
	case j.ctx.Err() != nil:
		// The whole job was canceled (Cancel or Close); wind the shard down.
		sh.state = StateCanceled
		if !j.state.terminal() {
			j.emit(Event{Type: "shard", Shard: sh.idx, State: StateCanceled})
		}
		s.maybeCleanupFiles(j)
	case interrupted:
		// Only this shard's context died: its worker was killed. The shard
		// saved a checkpoint on the way out; reschedule it, bounded.
		sh.restarts++
		s.nRestarts.Add(1)
		if sh.restarts > s.opts.MaxRestarts {
			sh.state = StateFailed
			s.failJob(j, fmt.Sprintf("shard %d exceeded %d restarts", sh.idx, s.opts.MaxRestarts))
			return
		}
		sh.state = StateQueued
		j.emit(Event{Type: "shard", Shard: sh.idx, State: StateQueued, Restarts: sh.restarts})
		s.sched.pushFront(t)
	default:
		sh.state = StateFailed
		s.failJob(j, fmt.Sprintf("shard %d: %v", sh.idx, err))
	}
}

// finishJob merges the landed shards, stores the result, caches it and
// retires the job, releasing its context. Caller holds j.mu.
//
//qmc:locked(mu)
func (s *Server) finishJob(j *job) {
	merged, err := j.agg.Final()
	if err != nil {
		s.failJob(j, err.Error())
		return
	}
	j.state = StateDone
	j.finished = time.Now()
	j.result = &JobResult{
		SchemaVersion: JobSchemaVersion,
		ID:            j.id,
		ConfigHash:    j.hash,
		Shards:        j.req.Shards,
		WallMS:        float64(j.finished.Sub(j.submitted)) / float64(time.Millisecond),
		Results:       merged,
	}
	if !j.req.NoCache {
		s.cache.put(j.req.cacheKey(), j.result)
	}
	s.nDone.Add(1)
	j.emit(Event{Type: "state", Shard: -1, State: StateDone, Partial: j.agg.Estimate()})
	s.cleanupJobFiles(j)
	// Release the context as failJob does: the children map runTask's
	// WithCancel allocated in it would otherwise live as long as the
	// retained job.
	j.cancel()
}

// failJob retires the job with an error, canceling the remaining shards.
// Caller holds j.mu.
//
//qmc:locked(mu)
func (s *Server) failJob(j *job, msg string) {
	if j.state.terminal() {
		return
	}
	j.state = StateFailed
	j.errMsg = msg
	j.finished = time.Now()
	for _, sh := range j.shards {
		if !sh.state.terminal() && sh.state != StateRunning {
			sh.state = StateCanceled
		}
	}
	s.nFailed.Add(1)
	j.emit(Event{Type: "state", Shard: -1, State: StateFailed, Error: msg})
	j.cancel()
	s.maybeCleanupFiles(j)
}

// maybeCleanupFiles removes the job's checkpoint files once it is terminal
// and its last running shard has wound down (interrupted shards write their
// resume point before re-entering the queue, so removing earlier would
// race the save). Without this, failed and canceled jobs would leak .ckpt
// files into a long-lived user-provided CheckpointDir. Caller holds j.mu.
//
//qmc:locked(mu)
func (s *Server) maybeCleanupFiles(j *job) {
	if !j.state.terminal() {
		return
	}
	for _, sh := range j.shards {
		if sh.state == StateRunning {
			return
		}
	}
	s.cleanupJobFiles(j)
}

// cleanupJobFiles removes any checkpoint files the job's shards left
// behind. Caller holds j.mu (paths are immutable, removal is idempotent —
// a missing file is the common case and not an error worth surfacing).
//
//qmc:locked(mu)
func (s *Server) cleanupJobFiles(j *job) {
	for _, sh := range j.shards {
		_ = os.Remove(sh.ckptPath)
	}
}
