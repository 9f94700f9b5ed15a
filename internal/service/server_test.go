package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"questgo/internal/core"
)

// fastConfig is a small, quick configuration used throughout the service
// tests.
func fastConfig() core.Config {
	return core.Config{
		Nx: 4, Ny: 4, Layers: 1, T: 1,
		U: 4, Mu: 0, Beta: 1, L: 8,
		WarmSweeps: 6, MeasSweeps: 12,
		ClusterK: 4, Delay: 16, PrePivot: true,
		MeasureBoundaries: true,
		Seed:              7,
	}
}

// newTestServer starts a service plus an httptest front end and returns the
// client; everything is torn down with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	if opts.CheckpointDir == "" {
		opts.CheckpointDir = t.TempDir()
	}
	svc, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return svc, &Client{Base: ts.URL, HTTPClient: ts.Client()}
}

// resultsEqual compares two results documents bitwise via their canonical
// JSON (timing is run-dependent and excluded by zeroing).
func resultsBytes(t *testing.T, r *core.Results) []byte {
	t.Helper()
	cp := *r
	cp.Metrics = nil // wall-times differ run to run; physics must not
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return b
}

// TestSingleShardBitwiseMatchesDirectRun is the API-redesign anchor: one
// shard through the whole HTTP stack returns the byte-identical physics of
// a direct core.Run of the same Config.
func TestSingleShardBitwiseMatchesDirectRun(t *testing.T) {
	cfg := fastConfig()
	want, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	_, cl := newTestServer(t, Options{Workers: 2})
	st, err := cl.Submit(context.Background(), JobRequest{Config: cfg})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res, err := cl.WaitResult(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if res.Shards != 1 || res.Cached {
		t.Fatalf("unexpected provenance: shards=%d cached=%v", res.Shards, res.Cached)
	}
	if got, wantB := resultsBytes(t, res.Results), resultsBytes(t, want); string(got) != string(wantB) {
		t.Errorf("service result differs from direct run:\n got %s\nwant %s", got, wantB)
	}
	if res.ConfigHash != cfg.Hash() {
		t.Errorf("config hash mismatch: %s vs %s", res.ConfigHash, cfg.Hash())
	}
}

// TestShardedJobMatchesWithWalkers: an n-shard job merges to exactly what
// the in-process walker group computes.
func TestShardedJobMatchesWithWalkers(t *testing.T) {
	cfg := fastConfig()
	const shards = 3
	want, err := core.Run(context.Background(), cfg, core.WithWalkers(shards))
	if err != nil {
		t.Fatalf("walker run: %v", err)
	}

	_, cl := newTestServer(t, Options{Workers: 2})
	st, err := cl.Submit(context.Background(), JobRequest{Config: cfg, Shards: shards})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	res, err := cl.WaitResult(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if got, wantB := resultsBytes(t, res.Results), resultsBytes(t, want); string(got) != string(wantB) {
		t.Errorf("sharded result differs from WithWalkers(%d):\n got %s\nwant %s", shards, got, wantB)
	}
	if m := res.Results.Metrics; m == nil || m.PhaseMS["refresh"] <= 0 || len(m.PhasePercent) == 0 {
		t.Errorf("merged job result carries no metrics document over the wire: %+v", m)
	}
}

// TestCacheHit: resubmitting identical physics is served from the cache,
// instantly and marked as such.
func TestCacheHit(t *testing.T) {
	cfg := fastConfig()
	svc, cl := newTestServer(t, Options{Workers: 1})

	st1, err := cl.Submit(context.Background(), JobRequest{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	res1, err := cl.WaitResult(context.Background(), st1.ID)
	if err != nil {
		t.Fatalf("wait 1: %v", err)
	}

	st2, err := cl.Submit(context.Background(), JobRequest{Config: cfg, Shards: 2})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("resubmission not served from cache: state=%s cached=%v", st2.State, st2.Cached)
	}
	if st2.ShardsDone != 2 {
		t.Errorf("cached status shards_done = %d, want 2", st2.ShardsDone)
	}
	res2, err := cl.Result(context.Background(), st2.ID)
	if err != nil {
		t.Fatalf("result 2: %v", err)
	}
	if !res2.Cached || res2.WallMS != 0 {
		t.Errorf("cached result provenance: cached=%v wall_ms=%v", res2.Cached, res2.WallMS)
	}
	if res2.ID != st2.ID {
		t.Errorf("cached result served under wrong id %s (want %s)", res2.ID, st2.ID)
	}
	if got, want := resultsBytes(t, res2.Results), resultsBytes(t, res1.Results); string(got) != string(want) {
		t.Errorf("cached result differs from original")
	}

	// Different shard count = different merge statistics = cache miss.
	st3, err := cl.Submit(context.Background(), JobRequest{Config: cfg, Shards: 1})
	if err != nil {
		t.Fatalf("submit 3: %v", err)
	}
	if st3.Cached {
		t.Errorf("shards=1 request must not hit the shards=2 cache entry")
	}
	if _, err := cl.WaitResult(context.Background(), st3.ID); err != nil {
		t.Fatalf("wait 3: %v", err)
	}

	stats := svc.Stats()
	if stats.CacheHits != 1 || stats.CacheMisses != 2 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/2", stats.CacheHits, stats.CacheMisses)
	}
	// NoCache bypasses lookup entirely.
	st4, err := cl.Submit(context.Background(), JobRequest{Config: cfg, Shards: 2, NoCache: true})
	if err != nil {
		t.Fatalf("submit 4: %v", err)
	}
	if st4.Cached {
		t.Errorf("no_cache submission served from cache")
	}
	if _, err := cl.WaitResult(context.Background(), st4.ID); err != nil {
		t.Fatalf("wait 4: %v", err)
	}
}

// TestCancel stops a long job before it finishes.
func TestCancel(t *testing.T) {
	cfg := fastConfig()
	cfg.WarmSweeps, cfg.MeasSweeps = 5000, 5000 // long enough to cancel mid-run

	_, cl := newTestServer(t, Options{Workers: 1})
	st, err := cl.Submit(context.Background(), JobRequest{Config: cfg})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	cst, err := cl.Cancel(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if cst.State != StateCanceled {
		t.Fatalf("post-cancel state %s", cst.State)
	}
	if _, err := cl.Result(context.Background(), st.ID); err == nil {
		t.Errorf("result of a canceled job must error")
	}
	// Cancel is idempotent.
	if _, err := cl.Cancel(context.Background(), st.ID); err != nil {
		t.Errorf("second cancel: %v", err)
	}
}

// TestFinishedJobRetention: a long-running daemon must not accumulate
// finished jobs forever — beyond RetainJobs the oldest finished ones are
// evicted at submission time, while live jobs and recent results survive.
func TestFinishedJobRetention(t *testing.T) {
	_, cl := newTestServer(t, Options{Workers: 1, RetainJobs: 2})
	ctx := context.Background()

	var last string
	for i := 0; i < 6; i++ {
		cfg := fastConfig()
		cfg.Seed = uint64(100 + i) // distinct physics per job
		st, err := cl.Submit(ctx, JobRequest{Config: cfg, NoCache: true})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if _, err := cl.WaitResult(ctx, st.ID); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		last = st.ID
	}

	// Submissions 4..6 each found 3+ finished jobs and evicted down to the
	// cap of 2, so only j4 (finished after submit 6 ran eviction), j5 and
	// j6 remain.
	jobs, err := cl.List(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(jobs) != 3 {
		ids := make([]string, 0, len(jobs))
		for _, j := range jobs {
			ids = append(ids, j.ID)
		}
		t.Fatalf("retained jobs = %v, want the 3 most recent", ids)
	}
	if _, err := cl.Status(ctx, "j000001"); err == nil {
		t.Errorf("evicted job still answers status")
	}
	if _, err := cl.Result(ctx, last); err != nil {
		t.Errorf("most recent job lost its result: %v", err)
	}
}

// TestStreamDeliversOrderedEventsToTerminal follows the chunked feed and
// checks sequencing and the terminal tail. A finished job keeps only its
// terminal event, so the job must not finish before the reader has shard
// 0's events: the fault hook holds shard 1 on the single worker after its
// first sweep until the reader has received a partial estimate (everything
// shard 0 emitted precedes that in the replay buffer).
func TestStreamDeliversOrderedEventsToTerminal(t *testing.T) {
	cfg := fastConfig()
	gotPartial := make(chan struct{})
	_, cl := newTestServer(t, Options{
		Workers: 1,
		FaultHook: func(_ string, shard, _ int) bool {
			if shard == 1 {
				select {
				case <-gotPartial:
				case <-time.After(30 * time.Second): // fail on the assertions below, not by hanging
				}
			}
			return false
		},
	})
	st, err := cl.Submit(context.Background(), JobRequest{Config: cfg, Shards: 2, Tag: "stream-test"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var events []Event
	var once sync.Once
	err = cl.Stream(context.Background(), st.ID, func(e Event) bool {
		if e.Type == "partial" {
			once.Do(func() { close(gotPartial) })
		}
		events = append(events, e)
		return true
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("event %d out of order: seq %d after %d", i, events[i].Seq, events[i-1].Seq)
		}
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != StateDone || last.Shard != -1 {
		t.Errorf("stream did not end on the terminal state event: %+v", last)
	}
	var sawProgress, sawPartial bool
	for _, e := range events {
		if e.SchemaVersion != JobSchemaVersion {
			t.Fatalf("event without schema version: %+v", e)
		}
		switch e.Type {
		case "progress":
			sawProgress = true
		case "partial":
			sawPartial = true
			if e.Partial == nil || e.Partial.Shards == 0 {
				t.Errorf("partial event without estimate: %+v", e)
			}
		}
	}
	if !sawProgress || !sawPartial {
		t.Errorf("missing event types: progress=%v partial=%v", sawProgress, sawPartial)
	}
}

// TestSubmitValidation exercises the request-rejection paths end to end.
func TestSubmitValidation(t *testing.T) {
	_, cl := newTestServer(t, Options{Workers: 1})
	bad := fastConfig()
	bad.L = 0
	if _, err := cl.Submit(context.Background(), JobRequest{Config: bad}); err == nil {
		t.Errorf("invalid config accepted")
	}
	if _, err := cl.Submit(context.Background(), JobRequest{Config: fastConfig(), Shards: -1}); err == nil {
		t.Errorf("negative shards accepted")
	}
	if _, err := cl.Submit(context.Background(), JobRequest{SchemaVersion: "2.0", Config: fastConfig()}); err == nil {
		t.Errorf("wrong-major request accepted")
	}
	ap := fastConfig()
	ap.Autopilot = true
	if _, err := cl.Submit(context.Background(), JobRequest{Config: ap, Shards: 2}); err == nil {
		t.Errorf("autopilot multi-shard accepted")
	}
}

// TestHTTPSurface covers the remaining endpoints and error statuses.
func TestHTTPSurface(t *testing.T) {
	_, cl := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	if _, err := cl.Status(ctx, "jexists-not"); err == nil {
		t.Errorf("status of unknown job must 404")
	}
	if _, err := cl.Result(ctx, "jexists-not"); err == nil {
		t.Errorf("result of unknown job must 404")
	}

	st, err := cl.Submit(ctx, JobRequest{Config: fastConfig()})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.SchemaVersion != JobSchemaVersion || st.ConfigHash == "" {
		t.Errorf("submission status missing wire metadata: %+v", st)
	}

	// Result before completion: 202 surfaces as ErrNotDone-ish error.
	resp, err := cl.http().Get(cl.url("/v1/jobs/" + st.ID + "/result"))
	if err != nil {
		t.Fatalf("raw result get: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Errorf("in-flight result status = %d", resp.StatusCode)
	}

	if _, err := cl.WaitResult(ctx, st.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}

	// List includes the job; healthz and stats answer.
	resp, err = cl.http().Get(cl.url("/v1/jobs"))
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	var list struct {
		SchemaVersion string       `json:"schema_version"`
		Jobs          []*JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	_ = resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Errorf("list = %+v", list)
	}
	resp, err = cl.http().Get(cl.url("/v1/healthz"))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	_ = resp.Body.Close()
	sstats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if sstats.JobsSubmitted != 1 || sstats.JobsDone != 1 {
		t.Errorf("stats = %+v", sstats)
	}
}

// TestCloseCancelsEveryJobInOrder pins the Close teardown path: the live
// snapshot must be taken from s.order (submission order), not from ranging
// the jobs map, so it covers every job exactly once and cancels in a
// deterministic sequence. A skipped entry would leave a job context alive
// past Close.
func TestCloseCancelsEveryJobInOrder(t *testing.T) {
	svc, err := New(Options{Workers: 1, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg := fastConfig()
	cfg.MeasSweeps = 200 // slow enough that later submissions stay queued
	var ids []string
	for i := 0; i < 4; i++ {
		c := cfg
		c.Seed = uint64(100 + i)
		st, err := svc.Submit(JobRequest{Config: c, NoCache: true})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}

	svc.mu.Lock()
	if got, want := len(svc.order), len(ids); got != want {
		svc.mu.Unlock()
		t.Fatalf("order tracks %d jobs, want %d", got, want)
	}
	for i, id := range svc.order {
		if id != ids[i] {
			svc.mu.Unlock()
			t.Fatalf("order[%d] = %s, want %s (submission order)", i, id, ids[i])
		}
	}
	svc.mu.Unlock()

	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	for _, id := range ids {
		j, ok := svc.jobs[id]
		if !ok {
			t.Fatalf("job %s missing after Close", id)
		}
		select {
		case <-j.ctx.Done():
		default:
			t.Errorf("job %s context still alive after Close", id)
		}
	}
}
