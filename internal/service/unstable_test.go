package service

import (
	"strings"
	"testing"

	"questgo/internal/core"
)

// TestUnstableJobFails: a job whose chain leaves the stable regime (the
// 4x4, U = 8, beta = 20, L = 200 chain at k = 20) ends failed with the
// reason, on the host and on two simulated devices with command graphs,
// and its result is never cached; the same chain under the autopilot
// completes.
func TestUnstableJobFails(t *testing.T) {
	svc, _ := newTestServer(t, Options{Workers: 1})
	for _, devices := range []int{0, 2} {
		cfg := core.DefaultConfig()
		cfg.Nx, cfg.Ny, cfg.U, cfg.Mu, cfg.Beta, cfg.L = 4, 4, 8, 0, 20, 200
		cfg.WarmSweeps, cfg.MeasSweeps, cfg.ClusterK = 2, 4, 20
		cfg.Devices, cfg.UseGraphs = devices, devices > 0
		req := JobRequest{Config: cfg}
		st, err := svc.Submit(req)
		if err != nil {
			t.Fatalf("devices=%d: submit: %v", devices, err)
		}
		j, _ := svc.lookup(st.ID)
		waitTerminal(j)
		final, _ := svc.Status(st.ID)
		if final.State != StateFailed || !strings.Contains(final.Error, "unstable") {
			t.Fatalf("devices=%d: job ended %s (error %q), want failed as unstable", devices, final.State, final.Error)
		}
		if err := req.normalize(); err != nil {
			t.Fatal(err)
		}
		if _, ok := svc.cache.get(req.cacheKey()); ok {
			t.Errorf("devices=%d: the failed job's result was cached", devices)
		}

		cfg.Autopilot, cfg.StabilityCheckEvery = true, 2
		st, err = svc.Submit(JobRequest{Config: cfg})
		if err != nil {
			t.Fatalf("devices=%d: submit: %v", devices, err)
		}
		j, _ = svc.lookup(st.ID)
		waitTerminal(j)
		if final, _ := svc.Status(st.ID); final.State != StateDone {
			t.Fatalf("devices=%d: the autopilot job ended %s (error %q), want done", devices, final.State, final.Error)
		}
	}
}

// TestFinishedJobReleasesContext: a job that finished has canceled its
// context, as a failed one has, and Cancel on it still reports it done.
func TestFinishedJobReleasesContext(t *testing.T) {
	svc, _ := newTestServer(t, Options{Workers: 1})
	st, err := svc.Submit(JobRequest{Config: fastConfig(), Shards: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j, _ := svc.lookup(st.ID)
	waitTerminal(j)
	if j.ctx.Err() == nil {
		t.Error("a finished job's context is still live")
	}
	got, err := svc.Cancel(st.ID)
	if err != nil || got.State != StateDone {
		t.Errorf("Cancel on a done job: %v, state %v; want its done status", err, got.State)
	}
}
