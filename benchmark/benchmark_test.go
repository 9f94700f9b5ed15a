package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// The command runs from the repository root, where BENCHMARK.json lives.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0 = refused
	}{
		{99, 0.9, 0}, {100, 0.9, 90}, {150, 0.9, 135},
		{19, 0.5, 0}, {20, 0.5, 10}, {21, 0.5, 11}, {0, 0.5, 0},
	} {
		got, err := percentile(ramp(c.n), c.p)
		if (err != nil) != (c.want == 0) || got != c.want {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v", c.n, c.p, got, err, c.want)
		}
	}
	if samplesFor(0.9) != 100 || samplesFor(0.5) != 20 || probeSamples < 20 {
		t.Errorf("samplesFor: p90 %d, p50 %d; want 100, 20 (and probeSamples %d >= 20)", samplesFor(0.9), samplesFor(0.5), probeSamples)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread(ramp(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartileSpread(ramp(2)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..2 = %v, want 1", got)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

func TestServiceJobsFollowTheSeed(t *testing.T) {
	encode := func(seed uint64) []byte {
		data, err := json.Marshal(serviceJobs(seed, 0, serviceBatch))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(encode(1), encode(1)) {
		t.Error("same seed gave different job lists")
	}
	if bytes.Equal(encode(1), encode(2)) {
		t.Error("seeds 1 and 2 gave the same job list")
	}
	jobs := serviceJobs(1, 0, serviceBatch)
	kinds := map[jobKind]int{}
	for i, j := range jobs {
		kinds[j.Kind]++
		if j.Kind == jobCold {
			continue
		}
		orig := jobs[i-resubmitDistance]
		want := orig.Req
		if j.Kind == jobVariant {
			want.Config.SerialSpins = !want.Config.SerialSpins
		}
		if orig.Kind != jobCold || j.Req != want {
			t.Errorf("job %d does not resubmit cold job %d", i, i-resubmitDistance)
		}
	}
	if kinds[jobRepeat] != 6 || kinds[jobVariant] != 2 {
		t.Errorf("batch of %d has %d repeats and %d variants, want 6 and 2", serviceBatch, kinds[jobRepeat], kinds[jobVariant])
	}
	if a, b := serviceJobs(1, 0, serviceBatch)[0], serviceJobs(1, 1, serviceBatch)[0]; a.Req.Config.Seed == b.Req.Config.Seed {
		t.Error("batches 0 and 1 share a config, so batch 1 would hit batch 0's cache entries")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "unit_ms_p50", Better: "lower", Bound: 0.05}
	higher := metricSpec{Name: "units_per_s", Better: "higher", Bound: 0.05}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	tight := []float64{100, 100.5, 99.5, 100.2, 99.8}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{80, 95, 100, 105, 120}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, tight, tight, verdictOK},
		{"slower within bound", lower, tight, shift(tight, 1.04), verdictOK},
		{"slower beyond bound", lower, tight, shift(tight, 1.06), verdictRegressed},
		{"faster", lower, tight, shift(tight, 0.5), verdictOK},
		{"throughput down beyond bound", higher, tight, shift(tight, 0.9), verdictRegressed},
		{"throughput up", higher, tight, shift(tight, 1.2), verdictOK},
		{"spread wider than bound", lower, noisy, shift(noisy, 1.01), verdictUnresolved},
		{"noisy but every run better", lower, noisy, shift(noisy, 0.5), verdictOK},
		{"noisy throughput, every run better", higher, noisy, shift(noisy, 2), verdictOK},
		{"single runs", lower, []float64{100}, []float64{110}, verdictRegressed},
		{"set-up under the absolute floor", setup, []float64{0.001}, []float64{0.002}, verdictOK},
		{"set-up over the absolute floor", setup, []float64{0.1}, []float64{0.2}, verdictRegressed},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, p50 float64, trace bool) string {
		r := newResult(spec, options{workload: "small_hot", trace: trace})
		r.set("unit_ms_p50", p50, 100)
		path := t.TempDir() + "/" + name
		if err := r.appendDoc(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.jsonl", 2.5, false)
	var out bytes.Buffer
	if err := compareFiles(&out, spec, base, write("b.jsonl", 2.55, false)); err != nil {
		t.Errorf("2%% slower: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, base, write("c.jsonl", 5, false)); err == nil || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("twice as slow passed: %v\n%s", err, out.String())
	}
	if err := compareFiles(&out, spec, base, write("d.jsonl", 5, true)); err == nil {
		t.Error("a traced run was compared as if it were untraced")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "core.run", StartNS: 0, EndNS: ms(100)},
		{ID: 2, Parent: 1, Name: "core.sweep", StartNS: ms(10), EndNS: ms(40)},
		{ID: 3, Parent: 1, Name: "core.sweep", StartNS: ms(30), EndNS: ms(60)}, // overlaps its sibling
		{ID: 4, Parent: 1, Name: "core.sweep", StartNS: ms(90), EndNS: ms(120)},
	}
	total, self := selfTimes(spans)
	if total["core.run"] != 100*time.Millisecond || self["core.run"] != 40*time.Millisecond {
		t.Errorf("core.run total %v self %v, want 100ms and 40ms", total["core.run"], self["core.run"])
	}
	if self["core.sweep"] != total["core.sweep"] || total["core.sweep"] != 90*time.Millisecond {
		t.Errorf("core.sweep total %v self %v, want 90ms both", total["core.sweep"], self["core.sweep"])
	}
}

// TestBenchmarkJSONContract holds BENCHMARK.json to the driver's limits.
func TestBenchmarkJSONContract(t *testing.T) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if findRunWorkload(w.Name) == nil && w.Name != serviceWorkload {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		hasSetup = hasSetup || m == metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: m.Bound}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Error("list or run_seconds outside the contract's limits")
	}
}

// TestSmokeRunEmitsEveryMetric runs every workload traced at 1% scale: each
// must produce all end-to-end metrics and a well-formed last line in both
// modes, and between them every per-layer metric must be measured. The
// workloads run side by side, which is fine for names and shapes.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := loadReference(referencePath)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	measured := map[string]bool{}
	t.Run("workloads", func(t *testing.T) {
		for _, w := range spec.Workloads {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				r, err := runWorkload(spec, ref, options{workload: w.Name, seed: 1, seconds: 0.15, scale: 0.01, trace: true})
				if err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				for name, m := range r.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", name, m.Value)
					}
					measured[name] = true
				}
				mu.Unlock()
				for _, trace := range []bool{false, true} {
					r.Trace = trace
					checkLastLine(t, spec, r)
				}
				if _, err := os.Stat(outDir + "/trace-" + w.Name + ".jsonl"); err != nil {
					t.Errorf("no trace file: %v", err)
				}
			})
		}
	})
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !measured[m.Name] {
			t.Errorf("no workload measured %s", m.Name)
		}
	}
}

// checkLastLine holds the driver's result object to its contract: exactly
// the four keys, and exactly the metrics of the mode with their units.
func checkLastLine(t *testing.T, spec *benchSpec, r *result) {
	line, err := r.lastLine()
	if err != nil {
		t.Errorf("trace=%v: %v", r.Trace, err)
		return
	}
	var doc struct {
		Correct   *bool
		Attempted int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil || doc.Correct == nil || doc.Failed == nil || doc.Attempted < 1 {
		t.Errorf("trace=%v: last line %s: %v", r.Trace, line, err)
	}
	want := spec.EndToEnd
	if r.Trace {
		want = spec.PerLayer
	}
	if len(doc.Metrics) != len(want) {
		t.Errorf("trace=%v: %d metrics on the last line, want %d", r.Trace, len(doc.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := doc.Metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
			t.Errorf("trace=%v: metric %s missing or in the wrong unit", r.Trace, m.Name)
		}
	}
}
