package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"questgo"
	"questgo/internal/core"
)

// runDeadline bounds one workload's run well inside the driver's 180 s.
const runDeadline = 150 * time.Second

// session is one workload's run in progress: the result being filled, the
// options, and the tracer (nil in an untraced pass) with the workload's
// root span.
type session struct {
	*result
	o     options
	tr    *tracer
	root  int
	meter *speedometer
}

// slowdown reads the speedometer, as a span of a traced pass.
func (s *session) slowdown() float64 {
	id := s.tr.start("machine.calibrate", s.root, "")
	defer s.tr.end(id)
	return s.meter.slowdown()
}

// reps scales a repetition count for smoke runs, never below one.
func (s *session) reps(n int) int { return scaled(n, s.o.scale, 1) }

// runWorkload measures one workload in this process.
func runWorkload(spec *benchSpec, ref reference, o options) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	s := &session{result: newResult(spec, o), o: o}
	s.meter = newSpeedometer(s.reps(calibReps))
	if o.trace {
		s.tr = newTracer(o.workload)
	}
	s.root = s.tr.start("workload."+o.workload, 0, "")
	preflight(s.result)

	var err error
	if w := findRunWorkload(o.workload); w != nil {
		err = measureRun(ctx, s, w, ref[w.name])
	} else if o.workload == serviceWorkload {
		err = measureService(ctx, s, ref[serviceWorkload])
	} else {
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return nil, err
	}
	s.tr.end(s.root)

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	s.set("peak_rss_mb", rss, 1)
	s.set("machine.slowdown", median(s.meter.read), len(s.meter.read))
	if s.tr != nil {
		total, self := selfTimes(s.tr.spans)
		if run := total["core.run"]; run > 0 {
			s.set("trace.sweep_coverage", 1-float64(self["core.run"])/float64(run), len(s.tr.spans))
		}
		s.set("trace.spans", float64(len(s.tr.spans)), 1)
		if err := s.tr.write(fmt.Sprintf("%s/trace-%s.jsonl", outDir, o.workload)); err != nil {
			return nil, err
		}
	}
	return s.result, nil
}

// peakRSSMB is this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// timeSetup repeats a fresh set-up and returns each repetition's seconds on
// the quiet box (see calib.go): at least five, and as many more as fit the
// budget, because the median of five sub-millisecond timings is too loose
// for a bounded metric.
func (s *session) timeSetup(name string, setup func() (cleanup func(), err error)) ([]float64, error) {
	budget := time.Duration(s.o.scale * float64(300*time.Millisecond))
	var secs []float64
	slow := s.slowdown()
	begin := time.Now()
	for len(secs) < s.reps(5) || (time.Since(begin) < budget && len(secs) < 300) {
		id := s.tr.start(name, s.root, "")
		start := time.Now()
		cleanup, err := setup()
		if err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		s.tr.end(id)
		if cleanup != nil {
			cleanup() // untimed
		}
	}
	slow = (slow + s.slowdown()) / 2
	for i := range secs {
		secs[i] /= slow
	}
	return secs, nil
}

// quantile sorts the samples and picks their p-quantile. Too few samples
// for it is a failed check, not a silent number; the value is then the
// unguarded quantile, so that a smoke run still reports something.
func (r *result) quantile(name string, samples []float64, p float64) float64 {
	sort.Float64s(samples)
	v, err := percentile(samples, p)
	if err != nil {
		r.check("samples."+name, false, "%v", err)
		if n := len(samples); n > 0 {
			v = samples[min(int(p*float64(n)), n-1)]
		}
	}
	return v
}

// setQuantile reports the p-quantile of per-unit latencies.
func (r *result) setQuantile(name string, samples []float64, p float64) {
	r.set(name, r.quantile(name, samples, p), len(samples))
}

// roundWalls keeps the wall seconds of the measured rounds (or batches), on
// the quiet box. A traced pass alternates untraced and traced rounds, so the two see the
// same machine state and their ratio is the tracing cost.
type roundWalls struct{ untraced, traced []float64 }

func (w *roundWalls) add(seconds float64, traced bool) {
	if traced {
		w.traced = append(w.traced, seconds)
	} else {
		w.untraced = append(w.untraced, seconds)
	}
}

func (w *roundWalls) sum() float64 {
	var s float64
	for _, x := range w.all() {
		s += x
	}
	return s
}

func (w *roundWalls) all() []float64 {
	return append(append([]float64(nil), w.untraced...), w.traced...)
}

// overhead is trace.overhead_frac.
func (w *roundWalls) overhead() float64 { return median(w.traced)/median(w.untraced) - 1 }

// measureRun measures one of the questgo.Run workloads in rounds.
func measureRun(ctx context.Context, s *session, w *runWorkloadSpec, ref map[string]refStat) error {
	r, tr, root, o := s.result, s.tr, s.root, s.o
	first := w.config(o.seed, 0, o.scale)
	setup, err := s.timeSetup("core.new", func() (func(), error) {
		_, err := core.New(first)
		return nil, err
	})
	if err != nil {
		return err
	}
	r.set("setup_s", median(setup), len(setup))

	// Three sweeps before timing fill the scratch pools and start the
	// worker pool.
	warmup := w.config(o.seed, 1<<20, o.scale)
	warmup.WarmSweeps, warmup.MeasSweeps = 1, 2
	if _, err := questgo.Run(ctx, warmup); err != nil {
		return err
	}

	var (
		sweepsPerRound = first.WarmSweeps + first.MeasSweeps
		stamps         = make([]time.Time, 0, sweepsPerRound)
		gapsMS         = make([]float64, 0, 64*sweepsPerRound) // on the quiet box
		rawGapsMS      = make([]float64, 0, 64*sweepsPerRound) // as measured
		minGaps        = s.reps(samplesFor(0.9))
		walls          roundWalls
		totals         layerTotals
		phys           physics
		problems       int
		last           *core.Results
	)
	before := s.slowdown()
	begin := time.Now()
	for round := 0; time.Since(begin).Seconds() < o.seconds || len(gapsMS) < minGaps || (tr != nil && round < 2); round++ {
		cfg := w.config(o.seed, round, o.scale)
		var rtr *tracer // traces the odd rounds of a traced pass
		if round%2 == 1 {
			rtr = tr
		}
		stamps = stamps[:0]
		var mem0, mem1 runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&mem0)
		}
		runID := rtr.start("core.run", root, "")
		start := time.Now()
		res, err := questgo.Run(ctx, cfg, questgo.WithProgress(func(core.Progress) {
			now := time.Now()
			prev := start
			if n := len(stamps); n > 0 {
				prev = stamps[n-1]
			}
			stamps = append(stamps, now)
			rtr.add("core.sweep", runID, "", prev, now)
		}))
		wall := time.Since(start)
		rtr.end(runID)
		// The round ran at the mean of the slowdowns read around it.
		after := s.slowdown()
		slow := (before + after) / 2
		before = after
		r.Attempted += sweepsPerRound
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("%s: still measuring after %v: %w", w.name, runDeadline, err)
			}
			r.Failed += sweepsPerRound
			r.check(fmt.Sprintf("round%d", round), false, "Run: %v", err)
			continue
		}
		if tr != nil {
			runtime.ReadMemStats(&mem1)
			totals.addMem(&mem0, &mem1)
		}
		walls.add(wall.Seconds()/slow, rtr != nil)
		// The first stamp follows core.New inside Run, so gaps start at the
		// second.
		for i := 1; i < len(stamps); i++ {
			gap := msBetween(stamps[i-1], stamps[i])
			rawGapsMS = append(rawGapsMS, gap)
			gapsMS = append(gapsMS, gap/slow)
		}
		if p := resultProblem(res); p != "" {
			problems++
			r.Failed += sweepsPerRound
			r.check(fmt.Sprintf("round%d", round), false, "%s", p)
		}
		phys.add(res)
		totals.addResults(res, wall)
		last = res
	}
	if last == nil {
		return fmt.Errorf("%s: no round finished", w.name)
	}
	all := walls.all()
	rounds := len(all)
	if problems == 0 {
		r.check("results", true, "%d rounds: finite, density 1, sign 1, acceptance, drift and residual in range", rounds)
	}
	phys.checkAgainst(r, ref)

	r.set("run_wall_s", median(all), rounds)
	r.set("units_per_s", float64(rounds*sweepsPerRound)/walls.sum(), rounds*sweepsPerRound)
	r.setQuantile("unit_ms_p50", gapsMS, 0.5)
	r.setQuantile("core.sweep_ms_p90", rawGapsMS, 0.9)

	if tr == nil {
		return nil
	}
	r.set("trace.overhead_frac", walls.overhead(), rounds)
	totals.emit(r)
	r.set("core.new_ms", median(setup)*1e3, len(setup))
	r.set("measure.samples_per_sweep", float64(measureSamplesPerSweep(last.Config)), 1)
	if err := probeLayers(s, last.Config); err != nil {
		return err
	}
	r.set("core.sweep_overhead_ms", r.quantile("core.sweep_overhead_ms", rawGapsMS, 0.5)-r.Metrics["update.sweep_ms_p50"].Value, len(rawGapsMS))
	return probeDocuments(s, last)
}

// measureSamplesPerSweep is computed from the configuration, not counted:
// the program has no counter for it.
func measureSamplesPerSweep(cfg core.Config) int {
	if !cfg.MeasureBoundaries {
		return 1
	}
	return cfg.L / cfg.ClusterK
}
