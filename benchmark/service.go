package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"questgo"
	"questgo/internal/core"
	"questgo/internal/obs"
	"questgo/internal/service"
)

// liveService is an in-process dqmcd behind a loopback HTTP listener: the
// whole stack a remote client sees, without a second process to manage.
type liveService struct {
	srv       *service.Server
	http      *http.Server
	transport *http.Transport
	client    *service.Client
}

// startService brings the service up and returns once /v1/healthz answers:
// NewServer + listen + first health check is the set-up a client waits for.
func startService(ctx context.Context) (*liveService, error) {
	srv, err := questgo.NewServer(questgo.ServerOptions{Workers: procs, CheckpointDir: outDir + "/ckpt"})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	s := &liveService{
		srv:  srv,
		http: &http.Server{Handler: srv},
		// One connection per closed-loop client.
		transport: &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients},
	}
	//qmc:allow goleak -- stop() closes the http.Server, which makes Serve return
	go func() { _ = s.http.Serve(ln) }()
	s.client = &service.Client{Base: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: s.transport}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.client.Base+"/v1/healthz", nil)
	if err == nil {
		var resp *http.Response
		if resp, err = s.client.HTTPClient.Do(req); err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
			}
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *liveService) stop() {
	s.transport.CloseIdleConnections()
	_ = s.http.Close()
	_ = s.srv.Close()
}

// jobOutcome is what one closed-loop client saw of one job.
type jobOutcome struct {
	job       *serviceJob
	id        string
	sent      time.Time // Submit sent
	submitted time.Time // Submit returned
	done      time.Time // WaitResult returned
	result    *service.JobResult
	err       error
	span      int // the job's service.job span in a traced batch
}

// clearBatch sends the jobs through serviceClients closed-loop clients —
// each sends its next job only after the previous result is in hand — and
// returns when every job is cleared.
func clearBatch(ctx context.Context, s *liveService, tr *tracer, root int, jobs []serviceJob) ([]jobOutcome, time.Duration) {
	outcomes := make([]jobOutcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				o := &outcomes[i]
				o.job = &jobs[i]
				o.sent = time.Now()
				st, err := s.client.Submit(ctx, jobs[i].Req)
				o.submitted = time.Now()
				if err != nil {
					o.err = err
					continue
				}
				o.id = st.ID
				o.result, o.err = s.client.WaitResult(ctx, st.ID)
				o.done = time.Now()
				o.span = tr.add("service.job", root, o.id, o.sent, o.done)
				tr.add("service.submit", o.span, o.id, o.sent, o.submitted)
				tr.add("service.wait", o.span, o.id, o.submitted, o.done)
			}
		}()
	}
	wg.Wait()
	return outcomes, time.Since(start)
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// measureService measures the service_mix workload in batches.
func measureService(ctx context.Context, s *session, ref map[string]refStat) error {
	r, tr, root, o := s.result, s.tr, s.root, s.o
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	setup, err := s.timeSetup("service.start", func() (func(), error) {
		svc, err := startService(ctx)
		if err != nil {
			return nil, err
		}
		return svc.stop, nil
	})
	if err != nil {
		return err
	}
	svc, err := startService(ctx)
	if err != nil {
		return err
	}
	defer svc.stop()
	r.set("setup_s", median(setup), len(setup))

	batchSize := scaled(serviceBatch, o.scale, 4)
	// Four jobs before timing: connections open, pools fill, both workers
	// have run.
	warm, _ := clearBatch(ctx, svc, nil, 0, serviceJobs(o.seed, 1<<20, 4))
	for _, w := range warm {
		if w.err != nil {
			return fmt.Errorf("warm-up job: %w", w.err)
		}
	}

	var (
		walls     roundWalls
		coldMS    []float64 // on the quiet box (see calib.go)
		rawColdMS []float64 // as measured
		hitMS     []float64
		submitMS  []float64
		outcomes  []jobOutcome
		statuses  = map[string]*service.JobStatus{} // read back in a traced pass only
		minCold   = s.reps(samplesFor(0.9))
		ops0      = obs.Counts()
		opsFirst  obs.OpCounts // of batch 0 alone: they repeat exactly
		stats0    = svc.srv.Stats()
		shards0   int64 // shards batch 0 ran
		totalWall time.Duration
		totals    layerTotals
		phys      physics
		problems  int
		variants  int // serial_spins resubmits, and how many of them hit
		varHits   int
	)
	// Hits are an eighth of the jobs, so on a slow box the time runs out
	// before their median has its samples. A smoke batch has no resubmits.
	minHits := 0
	for _, j := range serviceJobs(o.seed, 0, batchSize) {
		if j.Kind == jobRepeat {
			minHits = s.reps(samplesFor(0.5))
		}
	}
	before := s.slowdown()
	begin := time.Now()
	for batch := 0; time.Since(begin).Seconds() < o.seconds || len(coldMS) < minCold || len(hitMS) < minHits || (tr != nil && batch < 2); batch++ {
		var btr *tracer
		if batch%2 == 1 {
			btr = tr
		}
		jobs := serviceJobs(o.seed, batch, batchSize)
		var mem0, mem1 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&mem0)
		}
		id := btr.start("service.batch", root, "")
		out, wall := clearBatch(ctx, svc, btr, id, jobs)
		btr.end(id)
		if ctx.Err() != nil {
			return fmt.Errorf("%s: still measuring after %v", serviceWorkload, runDeadline)
		}
		// The batch ran at the mean of the slowdowns read around it.
		after := s.slowdown()
		slow := (before + after) / 2
		before = after
		totalWall += wall
		walls.add(wall.Seconds()/slow, btr != nil)
		if batch == 0 {
			opsFirst, shards0 = obs.Counts().Sub(ops0), svc.srv.Stats().ShardsRun-stats0.ShardsRun
		}
		if tr != nil {
			// Between batches, a traced pass reads back every job's status
			// document for the server-side timestamps.
			runtime.ReadMemStats(&mem1)
			totals.addMem(&mem0, &mem1)
			list, err := svc.client.List(ctx)
			if err != nil {
				return err
			}
			for _, st := range list {
				statuses[st.ID] = st
			}
		}
		for i := range out {
			oc := &out[i]
			r.Attempted++
			if oc.err != nil {
				r.Failed++
				problems++
				r.check(fmt.Sprintf("batch%d.job%d", batch, i), false, "%v", oc.err)
				continue
			}
			res := oc.result
			if p := resultProblem(res.Results); p != "" {
				r.Failed++
				problems++
				r.check(fmt.Sprintf("batch%d.job%d", batch, i), false, "%s", p)
			}
			if want := oc.job.Kind == jobRepeat; res.Cached != want {
				problems++
				r.check(fmt.Sprintf("batch%d.job%d", batch, i), false, "cached=%v, want %v", res.Cached, want)
			}
			if oc.job.Kind == jobVariant {
				variants++
				if res.Cached {
					varHits++
				}
			}
			if res.Cached {
				hitMS = append(hitMS, msBetween(oc.sent, oc.done))
				continue
			}
			coldMS = append(coldMS, msBetween(oc.sent, oc.done)/slow)
			rawColdMS = append(rawColdMS, msBetween(oc.sent, oc.done))
			submitMS = append(submitMS, msBetween(oc.sent, oc.submitted))
			// Per-job Metrics time each shard on its own collector, but its
			// op deltas include the neighbouring worker's; the counts below
			// come from the process-wide counters instead.
			totals.addResults(res.Results, 0)
			if oc.job.plainJob() {
				phys.add(res.Results)
			}
		}
		outcomes = append(outcomes, out...)
	}
	stats := svc.srv.Stats()
	ops := obs.Counts().Sub(ops0)

	// One 1-shard job must be bitwise the direct Run of its config.
	first := &outcomes[0]
	if first.err != nil {
		return fmt.Errorf("%s: first job: %w", serviceWorkload, first.err)
	}
	direct, err := questgo.Run(ctx, first.job.Req.Config)
	if err != nil {
		return err
	}
	got := first.result.Results
	same := got.Density == direct.Density && got.DoubleOcc == direct.DoubleOcc &&
		got.Kinetic == direct.Kinetic && got.SAF == direct.SAF && got.Acceptance == direct.Acceptance
	r.check("service.bitwise_direct_run", same, "job %s vs questgo.Run: double_occupancy %v vs %v", first.id, got.DoubleOcc, direct.DoubleOcc)
	submitted := stats.JobsSubmitted - stats0.JobsSubmitted
	hits, done := stats.CacheHits-stats0.CacheHits, stats.JobsDone-stats0.JobsDone
	r.check("service.hits_plus_done", hits+done == submitted && int(hits) == len(hitMS),
		"hits %d + done %d vs submitted %d; %d results carried cached=true", hits, done, submitted, len(hitMS))
	if problems == 0 {
		r.check("results", true, "%d jobs: finite, density 1, sign 1, acceptance, drift and residual in range, cached flag as sent", len(outcomes))
	}
	phys.checkAgainst(r, ref)

	all := walls.all()
	r.set("run_wall_s", median(all), len(all))
	r.set("units_per_s", float64(len(outcomes))/walls.sum(), len(outcomes))
	r.setQuantile("unit_ms_p50", coldMS, 0.5)
	r.setQuantile("service.job_ms_p90", rawColdMS, 0.9)

	if tr == nil {
		return nil
	}
	r.set("trace.overhead_frac", walls.overhead(), len(all))

	// The layer counts of everything the service executed: per sweep of
	// batch 0 for the counts, of all batches for the times.
	totals.first = obs.OpMetrics{
		GemmCalls: opsFirst[obs.OpGemmCalls], GemmFlops: opsFirst[obs.OpGemmFlops],
		QRFactorizations: opsFirst[obs.OpQRFactorizations], QRPFactorizations: opsFirst[obs.OpQRPFactorizations],
		UDTSteps: opsFirst[obs.OpUDTSteps], DelayedFlushes: opsFirst[obs.OpDelayedFlushes],
		Wraps: opsFirst[obs.OpWraps], Sweeps: opsFirst[obs.OpSweeps],
	}
	totals.flops, totals.sweeps = ops[obs.OpGemmFlops], ops[obs.OpSweeps]
	totals.wall = totalWall
	totals.emit(r)

	var queueMS, execMS, deliverMS, resultBytes []float64
	for i := range outcomes {
		oc := &outcomes[i]
		st := statuses[oc.id]
		if oc.err != nil || st == nil || oc.result.Cached {
			continue
		}
		queueMS = append(queueMS, float64(st.StartedUnixMS-st.SubmittedUnixMS))
		execMS = append(execMS, float64(st.FinishedUnixMS-st.StartedUnixMS))
		finished := time.UnixMilli(st.FinishedUnixMS)
		deliverMS = append(deliverMS, math.Max(msBetween(finished, oc.done), 0))
		tr.add("service.result", oc.span, oc.id, finished, oc.done)
		doc, err := json.Marshal(oc.result)
		if err != nil {
			return err
		}
		resultBytes = append(resultBytes, float64(len(doc)))
	}
	r.setQuantile("service.submit_ms_p50", submitMS, 0.5)
	r.setQuantile("service.queue_wait_ms_p50", queueMS, 0.5)
	r.setQuantile("service.queue_wait_ms_p90", queueMS, 0.9)
	r.setQuantile("service.exec_ms_p50", execMS, 0.5)
	r.setQuantile("service.exec_ms_p90", execMS, 0.9)
	r.setQuantile("service.deliver_ms_p50", deliverMS, 0.5)
	r.setQuantile("service.hit_ms_p50", hitMS, 0.5)
	r.set("service.result_bytes_p50", median(resultBytes), len(resultBytes))
	r.set("service.cache_hit_ratio", float64(hits)/float64(submitted), int(submitted))
	r.set("service.knob_variant_hit_ratio", float64(varHits)/math.Max(float64(variants), 1), variants)
	r.set("service.shards_run", float64(shards0), batchSize)
	r.set("service.shard_restarts", float64(stats.ShardRestarts-stats0.ShardRestarts), int(submitted))

	// The Go-level Submit of a cached config: what a hit costs without HTTP.
	cached := first.job.Req
	var submitErr error
	inproc := s.probe("service.inproc_submit", 1, nil, func() {
		if st, err := svc.srv.Submit(cached); err != nil {
			submitErr = err
		} else if !st.Cached {
			submitErr = fmt.Errorf("in-process resubmit of %s was not served from the cache", st.ID)
		}
	})
	if submitErr != nil {
		return submitErr
	}
	r.set("service.inproc_submit_ms", inproc*1e3, s.reps(probeSamples))

	shape := serviceJobs(o.seed, 0, 1)[0].Req.Config
	r.set("core.new_ms", 1e3*s.probe("core.new", 1, nil, func() { _, _ = core.New(shape) }), s.reps(probeSamples))
	r.set("measure.samples_per_sweep", float64(measureSamplesPerSweep(shape)), 1)
	if err := probeLayers(s, shape); err != nil {
		return err
	}
	return probeDocuments(s, got)
}
