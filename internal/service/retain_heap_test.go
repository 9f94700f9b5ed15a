//go:build !race && !qmcdebug

package service

import (
	"runtime"
	"testing"

	"questgo/internal/core"
)

// TestFinishedJobRetainedHeap bounds what a finished job costs the table,
// at the size and schedule the benchmark's service jobs run: the table keeps
// RetainJobs of them, so this is the service's steady-state footprint. The
// budget is the job record, its request, one terminal event and the result
// document (shared with the cache); the replay buffer alone used to be
// more than that. The race detector and the qmcdebug pool bookkeeping keep
// heap of their own per job, hence the build tags.
func TestFinishedJobRetainedHeap(t *testing.T) {
	const jobs, budget = 64, 6.5 * 1024
	svc, err := New(Options{Workers: 2, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = svc.Close() }()
	submit := func(seed uint64) *job {
		cfg := core.DefaultConfig()
		cfg.Beta, cfg.L, cfg.WarmSweeps, cfg.MeasSweeps, cfg.Seed = 4, 40, 10, 20, seed
		st, err := svc.Submit(JobRequest{Config: cfg})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		j, err := svc.lookup(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the sync.Pool victim caches
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	waitTerminal(submit(1)) // pools, worker stacks and the table's first growth
	before := heap()
	live := make([]*job, jobs)
	for i := range live {
		live[i] = submit(uint64(100 + i))
	}
	for _, j := range live {
		waitTerminal(j)
	}
	live = nil
	after := heap()
	perJob := (float64(after) - float64(before)) / jobs
	t.Logf("retained heap per finished 1-shard 4x4 job: %.0f B", perJob)
	if perJob > budget {
		t.Errorf("a finished job retains %.0f B, budget %.0f B", perJob, float64(budget))
	}
	runtime.KeepAlive(svc)
}
