package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"questgo/internal/core"
	"questgo/internal/schema"
)

// JobSchemaVersion is the wire version of every job-API document
// (JobRequest, JobStatus, JobResult, Event, Stats, error bodies). The HTTP
// paths carry the major too (/v1/...); the body field is what programs
// check.
const JobSchemaVersion = "1.0"

// JobState is the lifecycle of a job (and of each shard).
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether no further transitions can happen.
func (st JobState) terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// JobRequest is the POST /v1/jobs body: the canonical Config wire document
// plus the shard fan-out. Shard i runs the same physics with seed
// core.WalkerSeed(Config.Seed, i), so shards are statistically independent
// chains and the merged result is exactly what Run(..., WithWalkers) would
// produce.
type JobRequest struct {
	SchemaVersion string      `json:"schema_version,omitempty"`
	Config        core.Config `json:"config"`
	// Shards is the number of independent chains (default 1).
	Shards int `json:"shards,omitempty"`
	// Tag is an opaque client label echoed in status documents.
	Tag string `json:"tag,omitempty"`
	// NoCache bypasses the result cache for this job (no lookup, no
	// store) — the workload harness uses it to force cold executions.
	NoCache bool `json:"no_cache,omitempty"`
}

// normalize validates the request and fills defaults.
func (r *JobRequest) normalize() error {
	if err := schema.Check(r.SchemaVersion, JobSchemaVersion); err != nil {
		return fmt.Errorf("service: job request: %w", err)
	}
	if r.Shards == 0 {
		r.Shards = 1
	}
	if r.Shards < 1 || r.Shards > 4096 {
		return fmt.Errorf("service: shards must be in [1, 4096], got %d", r.Shards)
	}
	if err := r.Config.Validate(); err != nil {
		return err
	}
	if r.Shards > 1 && r.Config.Autopilot {
		// Mirrors core.Run's WithWalkers restriction: the walker group shares
		// one collector whose single stability listener cannot serve several
		// controllers. Shards are separate simulations so they *could* pilot
		// independently, but then an n-shard job would no longer reproduce
		// Run(..., WithWalkers(n)); keep the two surfaces identical.
		return fmt.Errorf("service: autopilot jobs support a single shard, not %d", r.Shards)
	}
	return nil
}

// cacheKey is the result-cache identity of the request: the deterministic
// Config content hash plus the shard fan-out (the merge statistics depend
// on it).
func (r *JobRequest) cacheKey() string {
	return fmt.Sprintf("%s/shards=%d", r.Config.Hash(), r.Shards)
}

// ShardStatus is one shard's slice of a status document.
type ShardStatus struct {
	Shard    int      `json:"shard"`
	State    JobState `json:"state"`
	Stage    string   `json:"stage,omitempty"`
	Sweep    int      `json:"sweep,omitempty"`
	Total    int      `json:"total,omitempty"`
	Restarts int      `json:"restarts,omitempty"`
}

// JobStatus is the GET /v1/jobs/{id} document.
type JobStatus struct {
	SchemaVersion string        `json:"schema_version,omitempty"`
	ID            string        `json:"job_id"`
	State         JobState      `json:"state"`
	Cached        bool          `json:"cached,omitempty"`
	Tag           string        `json:"tag,omitempty"`
	ConfigHash    string        `json:"config_hash"`
	Shards        []ShardStatus `json:"shards"`
	ShardsDone    int           `json:"shards_done"`
	// Partial is the streaming aggregate over the shards that have landed
	// so far (nil until the first one does).
	Partial *Estimate `json:"partial,omitempty"`
	Error   string    `json:"error,omitempty"`

	SubmittedUnixMS int64 `json:"submitted_unix_ms"`
	StartedUnixMS   int64 `json:"started_unix_ms,omitempty"`
	FinishedUnixMS  int64 `json:"finished_unix_ms,omitempty"`
}

// JobResult is the GET /v1/jobs/{id}/result document: the merged results
// wire format plus service provenance.
type JobResult struct {
	SchemaVersion string `json:"schema_version,omitempty"`
	ID            string `json:"job_id"`
	ConfigHash    string `json:"config_hash"`
	Shards        int    `json:"shards"`
	// Cached marks a result served from the cache instead of computed.
	Cached bool `json:"cached,omitempty"`
	// WallMS is the service-side execution time (submit to finish; 0 when
	// served from the cache).
	WallMS  float64       `json:"wall_ms"`
	Results *core.Results `json:"results"`
}

// Event is one chunked-JSON line of the GET /v1/jobs/{id}/stream feed.
// Shard is -1 for job-level events. The buffer is bounded, so Seq may jump
// for a slow reader; the terminal "state" event is never dropped.
type Event struct {
	SchemaVersion string    `json:"schema_version,omitempty"`
	Seq           int       `json:"seq"`
	ID            string    `json:"job_id"`
	Type          string    `json:"type"` // "state", "shard", "progress", "partial"
	Shard         int       `json:"shard"`
	State         JobState  `json:"state,omitempty"`
	Stage         string    `json:"stage,omitempty"`
	Sweep         int       `json:"sweep,omitempty"`
	Total         int       `json:"total,omitempty"`
	Restarts      int       `json:"restarts,omitempty"`
	Partial       *Estimate `json:"partial,omitempty"`
	Error         string    `json:"error,omitempty"`
}

// terminal reports whether e is the job-level event that ends a stream.
func (e Event) terminal() bool {
	return e.Type == "state" && e.Shard == -1 && e.State.terminal()
}

// maxBufferedEvents bounds each job's event replay buffer.
const maxBufferedEvents = 1024

// job is the server-side record of one submission.
type job struct {
	id   string
	req  JobRequest
	hash string

	ctx    context.Context
	cancel context.CancelFunc

	// All fields below are guarded by mu.
	mu        sync.Mutex
	state     JobState      //qmc:guarded(mu)
	errMsg    string        //qmc:guarded(mu)
	cached    bool          //qmc:guarded(mu)
	shards    []*shardState //qmc:guarded(mu)
	agg       *Aggregator   //qmc:guarded(mu)
	result    *JobResult    //qmc:guarded(mu)
	submitted time.Time     //qmc:guarded(mu)
	started   time.Time     //qmc:guarded(mu)
	finished  time.Time     //qmc:guarded(mu)

	events   []Event       //qmc:guarded(mu)
	firstSeq int           //qmc:guarded(mu)
	nextSeq  int           //qmc:guarded(mu)
	notify   chan struct{} //qmc:guarded(mu) closed+replaced on every event (broadcast)
}

// shardState is the live bookkeeping of one shard.
type shardState struct {
	idx       int
	cfg       core.Config // seed-derived; schedule may shrink across restarts
	state     JobState
	stage     string
	sweep     int
	total     int
	restarts  int
	ckptPath  string
	runCancel context.CancelFunc // non-nil while running
}

func newJob(id string, req JobRequest, hash string, ckptDir string) *job {
	ctx, cancel := context.WithCancel(background())
	shards := make([]*shardState, 0, req.Shards)
	for i := 0; i < req.Shards; i++ {
		cfg := req.Config
		cfg.Seed = core.WalkerSeed(req.Config.Seed, i)
		shards = append(shards, &shardState{
			idx:      i,
			cfg:      cfg,
			state:    StateQueued,
			ckptPath: fmt.Sprintf("%s/%s-shard%04d.ckpt", ckptDir, id, i),
		})
	}
	return &job{
		id: id, req: req, hash: hash,
		ctx: ctx, cancel: cancel,
		state:     StateQueued,
		shards:    shards,
		agg:       NewAggregator(req.Shards),
		submitted: time.Now(),
		notify:    make(chan struct{}),
	}
}

// cancelCtx cancels the job's context without touching state (Close path;
// state transitions happen under the lock elsewhere).
func (j *job) cancelCtx() { j.cancel() }

// emit appends an event under the job lock and wakes stream readers. The
// terminal state event is the job's last: it replaces the replay buffer (a
// reader that has not caught up sees Seq jump to it, as the stream contract
// allows) and freezes the aggregate, so a finished job retains its status
// and result and nothing a live job needed. The table keeps RetainJobs of
// them, which is why this is not left to eviction.
//
//qmc:locked(mu)
func (j *job) emit(e Event) {
	if j.state.terminal() && !e.terminal() {
		return // a shard winding down after the job retired
	}
	e.SchemaVersion = JobSchemaVersion
	e.Seq = j.nextSeq
	e.ID = j.id
	j.nextSeq++
	if e.terminal() {
		j.events, j.firstSeq = []Event{e}, e.Seq
		j.agg.release()
	} else {
		j.events = append(j.events, e)
		if drop := len(j.events) - maxBufferedEvents; drop > 0 {
			j.events = j.events[drop:]
			j.firstSeq += drop
		}
	}
	close(j.notify)
	j.notify = make(chan struct{})
}

// status builds the wire status document under the job lock.
//
//qmc:locked(mu)
func (j *job) status() *JobStatus {
	st := &JobStatus{
		SchemaVersion:   JobSchemaVersion,
		ID:              j.id,
		State:           j.state,
		Cached:          j.cached,
		Tag:             j.req.Tag,
		ConfigHash:      j.hash,
		ShardsDone:      j.agg.Landed(),
		Error:           j.errMsg,
		SubmittedUnixMS: j.submitted.UnixMilli(),
	}
	if j.cached {
		// A cache hit never ran its shards; they are done by proxy.
		st.ShardsDone = len(j.shards)
	}
	if !j.started.IsZero() {
		st.StartedUnixMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		st.FinishedUnixMS = j.finished.UnixMilli()
	}
	if j.agg.Landed() > 0 {
		st.Partial = j.agg.Estimate()
	}
	for _, sh := range j.shards {
		st.Shards = append(st.Shards, ShardStatus{
			Shard: sh.idx, State: sh.state, Stage: sh.stage,
			Sweep: sh.sweep, Total: sh.total, Restarts: sh.restarts,
		})
	}
	return st
}
