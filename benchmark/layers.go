package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"questgo/internal/benchutil"
	"questgo/internal/blas"
	"questgo/internal/core"
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/measure"
	"questgo/internal/obs"
	"questgo/internal/parallel"
	"questgo/internal/rng"
	"questgo/internal/stats"
	"questgo/internal/update"
)

// layerTotals collects what the program reports about its own layers — the
// Results.Metrics documents of the measured rounds (or service jobs) — plus
// the Go runtime's allocation counters around them. Counts come from the
// first round alone: its inputs are the same on every run of a seed however
// many rounds the time allows, so they repeat exactly. Times come from all
// rounds; the phase times are the program's own clock and are labelled
// "reported" in the README.
type layerTotals struct {
	first   obs.OpMetrics // op counts of the first round (or batch)
	devices struct {      // modeled device counters of the first round
		clockMS, launchMS     float64 // clock: max over devices
		flops, bytes, kernels int64
		maxAlloc              int64
	}
	rounds int

	flops       int64   // GEMM flops of all rounds
	sweeps      int64   // sweeps of all rounds
	clockMS     float64 // modeled device clock of all rounds
	phaseMS     map[string]float64
	reportedMS  float64 // sum of Metrics.WallMS
	wall        time.Duration
	maxResidual float64
	maxDrift    float64
	acceptance  []float64

	mallocs, allocBytes uint64
	gcCycles            uint32
}

func (t *layerTotals) addResults(res *core.Results, wall time.Duration) {
	t.rounds++
	t.wall += wall
	t.acceptance = append(t.acceptance, res.Acceptance)
	t.maxDrift = math.Max(t.maxDrift, res.MaxWrapDrift)
	m := res.Metrics
	if m == nil {
		return
	}
	if t.phaseMS == nil {
		t.phaseMS = map[string]float64{}
	}
	for phase, ms := range m.PhaseMS {
		t.phaseMS[phase] += ms
	}
	t.reportedMS += m.WallMS
	t.maxResidual = math.Max(t.maxResidual, m.Stability.MaxStratResidual)
	var clock float64
	for _, d := range m.Devices {
		clock = math.Max(clock, d.ClockMS)
	}
	t.clockMS += clock
	t.flops += m.Ops.GemmFlops
	t.sweeps += m.Ops.Sweeps
	if t.rounds > 1 {
		return
	}
	t.first = m.Ops
	t.devices.clockMS = clock
	for _, d := range m.Devices {
		t.devices.launchMS += d.LaunchOverheadMS
		t.devices.flops += d.Flops
		t.devices.bytes += d.TransferredBytes
		t.devices.kernels += d.Kernels
		t.devices.maxAlloc = max(t.devices.maxAlloc, d.MaxAllocBytes)
	}
}

func (t *layerTotals) addMem(before, after *runtime.MemStats) {
	t.mallocs += after.Mallocs - before.Mallocs
	t.allocBytes += after.TotalAlloc - before.TotalAlloc
	t.gcCycles += after.NumGC - before.NumGC
}

// emit reports the per-sweep counts and reported phase times.
func (t *layerTotals) emit(r *result) {
	n, all := int(t.first.Sweeps), int(t.sweeps)
	if n == 0 {
		return
	}
	per := func(v float64) float64 { return v / float64(n) }
	perAll := func(v float64) float64 { return v / float64(all) }
	r.set("blas.gemm_calls_per_sweep", per(float64(t.first.GemmCalls)), n)
	r.set("blas.gemm_flops_per_sweep", per(float64(t.first.GemmFlops)), n)
	r.set("blas.sustained_gflops", float64(t.flops)/t.wall.Seconds()/1e9, all)
	r.set("lapack.qr_per_sweep", per(float64(t.first.QRFactorizations)), n)
	r.set("lapack.qrp_per_sweep", per(float64(t.first.QRPFactorizations)), n)
	r.set("greens.udt_steps_per_sweep", per(float64(t.first.UDTSteps)), n)
	r.set("greens.wraps_per_sweep", per(float64(t.first.Wraps)), n)
	r.set("greens.max_strat_residual", t.maxResidual, all)
	r.set("greens.max_wrap_drift", t.maxDrift, all)
	r.set("update.flushes_per_sweep", per(float64(t.first.DelayedFlushes)), n)
	r.set("update.acceptance", stats.Mean(t.acceptance), len(t.acceptance))
	var phaseSum float64
	for _, phase := range []string{"wrap", "flush", "cluster", "refresh", "measure"} {
		r.set("core.phase_"+phase+"_ms", perAll(t.phaseMS[phase]), all)
		phaseSum += t.phaseMS[phase]
	}
	if t.reportedMS > 0 {
		r.set("core.phase_coverage", phaseSum/t.reportedMS, all)
	}
	r.set("core.mallocs_per_sweep", perAll(float64(t.mallocs)), all)
	r.set("core.alloc_kb_per_sweep", perAll(float64(t.allocBytes)/1024), all)
	r.set("core.gc_cycles", float64(t.gcCycles), all)
	if t.devices.clockMS > 0 {
		r.set("gpu.device_ms_per_sweep", per(t.devices.clockMS), n)
		r.set("gpu.launch_overhead_ms_per_sweep", per(t.devices.launchMS), n)
		r.set("gpu.kernels_per_sweep", per(float64(t.devices.kernels)), n)
		r.set("gpu.transfer_bytes_per_sweep", per(float64(t.devices.bytes)), n)
		r.set("gpu.modeled_gflops", float64(t.devices.flops)/(t.devices.clockMS*1e6), n)
		r.set("gpu.max_alloc_bytes", float64(t.devices.maxAlloc), n)
		r.set("gpu.host_over_modeled", t.wall.Seconds()*1e3/t.clockMS, all)
	}
}

// Probes: timed calls into each layer's public functions at the workload's
// own shapes, on a field drawn from the workload seed.
const (
	probeWarmups = 3
	probeSamples = 21 // a median needs 20 to have minBeyond samples beyond it
	probeDelay   = 32 // nd of the delayed-flush shape
)

// probe times fn and returns the median seconds per call. One sample is
// `inner` calls back to back, so that microsecond calls are measured over
// an interval the clock resolves; reset, when non-nil, runs untimed before
// each sample. The whole probe is one span under the workload's root.
func (s *session) probe(name string, inner int, reset, fn func()) float64 {
	id := s.tr.start("probe."+name, s.root, "")
	defer s.tr.end(id)
	samples := s.reps(probeSamples)
	secs := make([]float64, 0, samples)
	for i := -s.reps(probeWarmups); i < samples; i++ {
		if reset != nil {
			reset()
		}
		start := time.Now()
		for j := 0; j < inner; j++ {
			fn()
		}
		if i >= 0 {
			secs = append(secs, time.Since(start).Seconds()/float64(inner))
		}
	}
	return s.quantile(name, secs, 0.5)
}

// innerFor picks how many calls make one sample of roughly 200 us.
func innerFor(fn func()) int {
	fn()
	start := time.Now()
	fn()
	once := time.Since(start)
	return int(min(max(200*time.Microsecond/max(once, 1), 1), 4096))
}

func randomMatrix(rows, cols int, src *rng.Rand) *mat.Dense {
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = 2*src.Float64() - 1
	}
	return m
}

// probeLayers runs every layer probe at cfg's shape and reports the
// per-layer timings.
func probeLayers(s *session, cfg core.Config) error {
	r, tr, root, o := s.result, s.tr, s.root, s.o
	lat := lattice.NewSquare(cfg.Nx, cfg.Ny, cfg.T)
	model, err := hubbard.NewModel(lat, cfg.U, cfg.Mu, cfg.Beta, cfg.L)
	if err != nil {
		return err
	}
	var (
		n     = model.N()
		k     = cfg.ClusterK
		nc    = cfg.L / k
		nd    = min(probeDelay, n)
		src   = rng.New(deriveSeed(o.seed, 6, 0))
		prop  = hubbard.NewPropagator(model)
		field = hubbard.NewRandomField(cfg.L, n, src)
		count = s.reps(probeSamples)
		ms    = func(name string, secs float64) { r.set(name, secs*1e3, count) }
		timed = func(name string, reset, fn func()) float64 {
			return s.probe(name, innerFor(fn), reset, fn)
		}
	)

	// blas
	a, b, c := randomMatrix(n, n, src), randomMatrix(n, n, src), mat.New(n, n)
	gemm := timed("blas.gemm_nn", nil, func() { blas.Gemm(false, false, 1, a, b, 0, c) })
	gemmGF := blas.GemmFlops(n, n, n) / gemm / 1e9
	ms("blas.gemm_nn_ms", gemm)
	r.set("blas.gemm_nn_gflops", gemmGF, count)
	x, y := randomMatrix(n, nd, src), randomMatrix(n, nd, src)
	ms("blas.gemm_flush_ms", timed("blas.gemm_flush", c.Zero, func() { blas.Gemm(false, true, 1e-3, x, y, 1, c) }))

	// lapack, as a share of the GEMM rate underneath it
	work := mat.New(n, n)
	qr := timed("lapack.qr", nil, func() {
		work.CopyFrom(a)
		lapack.QRFactor(work).Release()
	})
	ms("lapack.qr_ms", qr)
	r.set("lapack.qr_frac_of_gemm", benchutil.QRFlops(n)/qr/1e9/gemmGF, count)
	qrp := timed("lapack.qrp", nil, func() {
		work.CopyFrom(a)
		f, piv := lapack.QRPFactor(work)
		f.Release()
		lapack.PutPivot(&piv)
	})
	ms("lapack.qrp_ms", qrp)
	r.set("lapack.qrp_frac_of_gemm", benchutil.QRFlops(n)/qrp/1e9/gemmGF, count)

	// greens
	clusters := greens.NewClusterSet(prop, field, hubbard.Up, k)
	g0 := mat.New(n, n)
	greens.GreenInto(g0, clusters.Chain(0), true)
	g, wrapper, slice := mat.New(n, n), greens.NewWrapper(prop), 0
	// At most k wraps per sample, from a fresh G: the sweep never wraps
	// further than that before it re-stratifies.
	wrapInner := min(innerFor(func() { wrapper.Wrap(g0.Clone(), field, hubbard.Up, 0) }), k)
	ms("greens.wrap_ms", s.probe("greens.wrap", wrapInner,
		func() { g.CopyFrom(g0); slice = 0 },
		func() { wrapper.Wrap(g, field, hubbard.Up, slice); slice++ }))
	cluster := 0
	ms("greens.cluster_recompute_ms", timed("greens.cluster_recompute", nil, func() {
		clusters.Recompute(field, cluster)
		cluster = (cluster + 1) % nc
	}))
	full := timed("greens.green_full", nil, func() { greens.GreenInto(g, clusters.Chain(0), true) })
	ms("greens.green_full_ms", full)
	r.set("greens.green_full_frac_of_gemm", benchutil.GreensFlops(n, nc)/full/1e9/gemmGF, count)
	stack := greens.NewStratStack(clusters, true)
	ms("greens.stack_rebuild_ms", timed("greens.stack_rebuild", nil, stack.Rebuild))
	advance, green := probeStack(s, stack, g, nc)
	ms("greens.stack_advance_ms", advance)
	ms("greens.stack_green_ms", green)

	// parallel: the fork/join cost alone
	nop := func() {}
	r.set("parallel.pair_ns", 1e9*timed("parallel.pair", nil, func() { parallel.Pair(nop, nop) }), count)
	r.set("parallel.for_ns", 1e9*timed("parallel.for", nil, func() { parallel.For(2, 1, func(lo, hi int) {}) }), count)

	// update: the bare sweep, without core's measurements and collector
	sweeper := update.NewSweeper(prop, field, src, update.Options{ClusterK: k, Delay: cfg.Delay, PrePivot: cfg.PrePivot})
	// At least the usual sample count, and more while sweeps are cheap: the
	// field starts random, and a median over a thermalizing chain drifts.
	sweepMS := make([]float64, 0, 512)
	id := tr.start("probe.update.sweep", root, "")
	budget := time.Duration(o.scale * float64(250*time.Millisecond))
	for i, begin := -s.reps(probeWarmups), time.Now(); i < count || (time.Since(begin) < budget && i < cap(sweepMS)); i++ {
		start := time.Now()
		sweeper.Sweep()
		if i >= 0 {
			sweepMS = append(sweepMS, float64(time.Since(start))/float64(time.Millisecond))
		}
	}
	tr.end(id)
	r.setQuantile("update.sweep_ms_p50", sweepMS, 0.5)

	// measure
	ms("measure.equal_time_ms", timed("measure.equal_time", nil, func() {
		measure.Measure(lat, sweeper.GreenUp(), sweeper.GreenDn(), 1)
	}))
	return nil
}

// probeStack walks the stratification stack through whole sweeps the way
// update.Sweeper does — Advance then GreenInto at each of nc boundaries —
// and returns the median seconds per Advance and per GreenInto call.
func probeStack(s *session, stack *greens.StratStack, g *mat.Dense, nc int) (advance, green float64) {
	id := s.tr.start("probe.greens.stack", s.root, "")
	defer s.tr.end(id)
	samples := s.reps(probeSamples)
	adv, grn := make([]float64, 0, samples), make([]float64, 0, samples)
	for i := -s.reps(probeWarmups); i < samples; i++ {
		var ta, tg time.Duration
		for c := 0; c < nc; c++ {
			t0 := time.Now()
			stack.Advance()
			t1 := time.Now()
			stack.GreenInto(g)
			ta += t1.Sub(t0)
			tg += time.Since(t1)
		}
		if i >= 0 {
			adv = append(adv, ta.Seconds()/float64(nc))
			grn = append(grn, tg.Seconds()/float64(nc))
		}
	}
	return s.quantile("greens.stack_advance", adv, 0.5), s.quantile("greens.stack_green", grn, 0.5)
}

// probeDocuments times what the service does with a finished chain: the
// shard checkpoint it saves and the results document it serves.
func probeDocuments(s *session, res *core.Results) error {
	r := s.result
	sim, err := core.New(res.Config)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := fmt.Sprintf("%s/probe-%s.ckpt", outDir, r.Workload)
	defer os.Remove(path)
	var saveErr error
	secs := s.probe("core.checkpoint_save", 1, nil, func() {
		if err := sim.Checkpoint().Save(path); err != nil {
			saveErr = err
		}
	})
	if saveErr != nil {
		return saveErr
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.set("core.checkpoint_ms", secs*1e3, s.reps(probeSamples))
	r.set("core.checkpoint_bytes", float64(info.Size()), 1)
	doc, err := json.Marshal(res)
	if err != nil {
		return err
	}
	r.set("core.results_json_bytes", float64(len(doc)), 1)
	return nil
}
