// Package service turns the DQMC library into a long-running sharded
// simulation server: a versioned HTTP/JSON job API (submit / status /
// result / cancel, plus chunked-JSON progress streaming) over the canonical
// core.Run pipeline.
//
// A job is one Config plus a shard count. Shards are statistically
// independent Markov chains — the embarrassingly parallel axis of DQMC —
// with seeds derived by core.WalkerSeed, so a 1-shard job reproduces a
// direct single-walker core.Run bit for bit and an n-shard job reproduces
// Run(..., WithWalkers(n)). Shards are executed by a bounded worker pool;
// results are aggregated as they land (each shard's log-binning errors,
// merged by core.MergeResults), a partial estimate is streamed
// while the job runs, and the final merged document is stored in an LRU
// result cache keyed on the deterministic Config content hash — a repeated
// request for identical physics is served instantly.
//
// A worker that dies mid-shard (fault injection, cancellation, crash
// recovery) leaves a checkpoint behind: the chain, its place in the
// schedule and the measurement so far. The next attempt continues the run
// from there, so the aggregated observables are bitwise identical to an
// undisturbed run.
package service

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options configures a Server. The zero value is usable: it runs
// runtime.NumCPU() workers, retains the 512 most recent finished jobs,
// caches as many results, and checkpoints into a private temporary
// directory that is removed on Close.
type Options struct {
	// Workers bounds the number of shards executing concurrently
	// (default runtime.NumCPU()).
	Workers int
	// CacheSize is the result-cache capacity in entries (default: the
	// larger of 256 and RetainJobs; negative disables caching).
	CacheSize int
	// CheckpointDir is where per-shard restart files live. Empty means a
	// private os.MkdirTemp directory owned (and removed) by the server.
	CheckpointDir string
	// MaxRestarts bounds how many times one shard may be resumed from its
	// checkpoint after an interruption before the job fails (default 3).
	MaxRestarts int
	// RetainJobs caps how many finished (done/failed/canceled) jobs are
	// kept for status/result reads; beyond it the oldest finished jobs are
	// evicted at submission time (default 512; negative retains all). Live
	// jobs are never evicted and do not count against the cap.
	RetainJobs int
	// FaultHook, when set, is consulted after every completed sweep of
	// every shard; returning true kills that shard's worker mid-run (its
	// context is canceled, it saves a checkpoint, and the queue reschedules
	// it). This is the deterministic fault-injection port used by the
	// shard-recovery tests and the workload harness — production servers
	// leave it nil.
	FaultHook func(jobID string, shard, sweep int) bool
}

// defaulted returns o with every unset field given its default.
func (o Options) defaulted() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.MaxRestarts <= 0 {
		o.MaxRestarts = 3
	}
	if o.RetainJobs == 0 {
		o.RetainJobs = 512
	}
	if o.CacheSize == 0 {
		// The cache stores the pointer a retained job already holds, so
		// fewer entries than that only forget results still in memory.
		o.CacheSize = max(256, o.RetainJobs)
	}
	return o
}

// Server is the sharded simulation service. It implements http.Handler
// (mount it on any mux or listener); the Go-level Submit/Status/... methods
// are the same operations the HTTP layer exposes, so in-process callers and
// remote clients see one behavior.
type Server struct {
	opts Options
	mux  *http.ServeMux

	cache *resultCache
	sched *scheduler

	mu     sync.Mutex
	jobs   map[string]*job //qmc:guarded(mu)
	order  []string        //qmc:guarded(mu) submission order, for listing
	nextID int             //qmc:guarded(mu)
	closed bool            //qmc:guarded(mu)

	ckptDir    string
	ownCkptDir bool

	wg sync.WaitGroup

	// Counters for the /v1/stats document.
	nSubmitted, nDone, nFailed, nCanceled atomic.Int64
	nShardsRun, nRestarts                 atomic.Int64
	nCacheHits, nCacheMisses              atomic.Int64
}

// New builds a Server and starts its worker pool.
func New(opts Options) (*Server, error) {
	opts = opts.defaulted()
	s := &Server{
		opts:  opts,
		jobs:  map[string]*job{},
		sched: newScheduler(),
		cache: newResultCache(opts.CacheSize),
	}
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: checkpoint dir: %w", err)
		}
		s.ckptDir = opts.CheckpointDir
	} else {
		dir, err := os.MkdirTemp("", "dqmcd-ckpt-*")
		if err != nil {
			return nil, fmt.Errorf("service: checkpoint dir: %w", err)
		}
		s.ckptDir, s.ownCkptDir = dir, true
	}
	s.routes()
	for w := 0; w < opts.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.worker()
		}()
	}
	return s, nil
}

// Workers reports the size of the worker pool.
func (s *Server) Workers() int { return s.opts.Workers }

// Close cancels every live job, drains the worker pool and removes the
// server-owned checkpoint directory. The HTTP surface keeps answering
// status/result reads for already-finished jobs until the caller tears the
// listener down.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	live := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		live = append(live, s.jobs[id])
	}
	s.mu.Unlock()
	for _, j := range live {
		j.cancelCtx()
	}
	s.sched.close()
	s.wg.Wait()
	if s.ownCkptDir {
		return os.RemoveAll(s.ckptDir)
	}
	return nil
}

// Stats is the /v1/stats service counters document.
type Stats struct {
	SchemaVersion string `json:"schema_version,omitempty"`
	Workers       int    `json:"workers"`
	QueueDepth    int    `json:"queue_depth"`
	Jobs          int    `json:"jobs"`
	JobsSubmitted int64  `json:"jobs_submitted"`
	JobsDone      int64  `json:"jobs_done"`
	JobsFailed    int64  `json:"jobs_failed"`
	JobsCanceled  int64  `json:"jobs_canceled"`
	ShardsRun     int64  `json:"shards_run"`
	ShardRestarts int64  `json:"shard_restarts"`
	CacheHits     int64  `json:"cache_hits"`
	CacheMisses   int64  `json:"cache_misses"`
	CacheEntries  int    `json:"cache_entries"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	return Stats{
		SchemaVersion: JobSchemaVersion,
		Workers:       s.opts.Workers,
		QueueDepth:    s.sched.depth(),
		Jobs:          jobs,
		JobsSubmitted: s.nSubmitted.Load(),
		JobsDone:      s.nDone.Load(),
		JobsFailed:    s.nFailed.Load(),
		JobsCanceled:  s.nCanceled.Load(),
		ShardsRun:     s.nShardsRun.Load(),
		ShardRestarts: s.nRestarts.Load(),
		CacheHits:     s.nCacheHits.Load(),
		CacheMisses:   s.nCacheMisses.Load(),
		CacheEntries:  s.cache.len(),
	}
}

// evictFinishedLocked enforces the RetainJobs cap: excess finished jobs are
// dropped oldest-first, together with their buffered events and result
// documents, so a long-running daemon's job table stays bounded. Live jobs
// are never touched, and the result cache is unaffected — identical physics
// resubmitted after eviction is still a cache hit. Caller holds s.mu; job
// locks nest inside it.
//
//qmc:locked(mu)
func (s *Server) evictFinishedLocked() {
	if s.opts.RetainJobs < 0 {
		return
	}
	finished := 0
	terminal := make([]bool, len(s.order))
	for i, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		terminal[i] = j.state.terminal()
		j.mu.Unlock()
		if terminal[i] {
			finished++
		}
	}
	if finished <= s.opts.RetainJobs {
		return
	}
	keep := s.order[:0]
	for i, id := range s.order {
		if finished > s.opts.RetainJobs && terminal[i] {
			delete(s.jobs, id)
			finished--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// background returns the context all job contexts derive from. Jobs are
// canceled individually (or by Close), never by an HTTP request ending.
func background() context.Context { return context.Background() }
