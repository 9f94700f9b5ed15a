package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPhaseAndOpNames(t *testing.T) {
	wantPhases := []string{"wrap", "flush", "cluster", "refresh", "measure"}
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() != wantPhases[p] {
			t.Fatalf("phase %d name %q, want %q", p, p.String(), wantPhases[p])
		}
	}
	seen := map[string]bool{}
	for o := Op(0); o < NumOps; o++ {
		n := o.String()
		if n == "unknown" || seen[n] {
			t.Fatalf("op %d has bad/duplicate name %q", o, n)
		}
		seen[n] = true
	}
}

func TestCountersAndDeltas(t *testing.T) {
	c := New()
	Add(OpWraps, 3)
	AddGemm(4, 5, 6)
	d := c.OpDeltas()
	if d[OpWraps] != 3 {
		t.Fatalf("wraps delta %d, want 3", d[OpWraps])
	}
	if d[OpGemmCalls] != 1 || d[OpGemmFlops] != 2*4*5*6 {
		t.Fatalf("gemm delta calls=%d flops=%d", d[OpGemmCalls], d[OpGemmFlops])
	}
	// A second collector created now must not see those counts.
	c2 := New()
	if d2 := c2.OpDeltas(); d2[OpWraps] != 0 {
		t.Fatalf("fresh collector sees stale wraps delta %d", d2[OpWraps])
	}
}

func TestPhaseTiming(t *testing.T) {
	c := New()
	start := c.Begin()
	time.Sleep(2 * time.Millisecond)
	c.End(PhaseWrap, start)
	pd := c.PhaseDurations()
	if pd[PhaseWrap] < time.Millisecond {
		t.Fatalf("wrap phase %v, want >= 1ms", pd[PhaseWrap])
	}
	if pd != (PhaseDurations{PhaseWrap: pd[PhaseWrap]}) {
		t.Fatalf("End(PhaseWrap) charged another phase: %v", pd)
	}
}

func TestStabilitySamples(t *testing.T) {
	c := New()
	c.SampleWrapDrift(1e-9)
	c.SampleWrapDrift(1e-11)
	c.SampleStratResidual(1e-13)
	c.SampleStratResidual(3e-13)
	c.SampleUDTCond(5)
	c.SampleUDTCond(7)
	m := c.Metrics()
	s := m.Stability
	if s.MaxWrapDrift != 1e-9 || s.WrapDriftSamples != 2 {
		t.Fatalf("wrap drift %v/%d", s.MaxWrapDrift, s.WrapDriftSamples)
	}
	if s.MaxStratResidual != 3e-13 || s.StratResidualSamples != 2 {
		t.Fatalf("strat residual %v/%d", s.MaxStratResidual, s.StratResidualSamples)
	}
	if s.MeanStratResidual != 2e-13 {
		t.Fatalf("mean strat residual %v", s.MeanStratResidual)
	}
	if s.MaxUDTCondLog10 != 7 || s.MeanUDTCondLog10 != 6 || s.UDTCondSamples != 2 {
		t.Fatalf("cond %v/%v/%d", s.MaxUDTCondLog10, s.MeanUDTCondLog10, s.UDTCondSamples)
	}
}

// TestNonFiniteSamples is the regression test for the silent NaN/Inf drop:
// `v > max` is false for NaN, so a blown-up probe reading used to leave the
// maxima untouched and the run looked stable. Non-finite samples must be
// counted explicitly, set the sticky flag, stay out of the finite
// aggregates, and never leak NaN into the JSON document.
func TestNonFiniteSamples(t *testing.T) {
	c := New()
	c.SampleWrapDrift(1e-10)
	c.SampleWrapDrift(math.NaN())
	c.SampleStratResidual(math.Inf(1))
	c.SampleStratResidual(2e-12)
	c.SampleUDTCond(math.NaN())
	c.SampleUDTCond(math.Inf(-1))
	m := c.Metrics()
	s := m.Stability
	if !s.NonFiniteSeen {
		t.Fatal("NaN/Inf samples did not set the sticky non-finite flag")
	}
	if s.NonFiniteWrapDrift != 1 || s.NonFiniteStratResidual != 1 || s.NonFiniteUDTCond != 2 {
		t.Fatalf("non-finite counts drift=%d strat=%d cond=%d, want 1/1/2",
			s.NonFiniteWrapDrift, s.NonFiniteStratResidual, s.NonFiniteUDTCond)
	}
	if s.MaxWrapDrift != 1e-10 || s.WrapDriftSamples != 1 {
		t.Fatalf("finite wrap drift aggregates polluted: max=%v n=%d", s.MaxWrapDrift, s.WrapDriftSamples)
	}
	if s.MaxStratResidual != 2e-12 || s.MeanStratResidual != 2e-12 || s.StratResidualSamples != 1 {
		t.Fatalf("finite strat aggregates polluted: max=%v mean=%v n=%d",
			s.MaxStratResidual, s.MeanStratResidual, s.StratResidualSamples)
	}
	if s.MaxUDTCondLog10 != 0 || s.MeanUDTCondLog10 != 0 || s.UDTCondSamples != 0 {
		t.Fatalf("cond aggregates should be empty: max=%v mean=%v n=%d",
			s.MaxUDTCondLog10, s.MeanUDTCondLog10, s.UDTCondSamples)
	}
	if _, err := json.Marshal(m); err != nil {
		t.Fatalf("metrics with non-finite samples must still marshal: %v", err)
	}
}

// TestZeroSampleMeansRoundTrip asserts that a run where a probe never fired
// exports mean 0 with samples 0 (not NaN, which encoding/json rejects), and
// that the document round-trips.
func TestZeroSampleMeansRoundTrip(t *testing.T) {
	c := New()
	c.Finish()
	m := c.Metrics()
	s := m.Stability
	if s.StratResidualSamples != 0 || s.UDTCondSamples != 0 || s.WrapDriftSamples != 0 {
		t.Fatalf("expected zero samples, got %+v", s)
	}
	if s.MeanStratResidual != 0 || s.MeanUDTCondLog10 != 0 {
		t.Fatalf("zero-sample means must be exactly 0, got strat=%v cond=%v",
			s.MeanStratResidual, s.MeanUDTCondLog10)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("zero-sample metrics must marshal: %v", err)
	}
	var back Metrics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Stability != s {
		t.Fatalf("stability round trip mismatch: %+v vs %+v", back.Stability, s)
	}
}

// recordingListener captures the sample stream (thread-safely, as required
// by the StabilityListener contract).
type recordingListener struct {
	mu      sync.Mutex
	samples []struct {
		p StabilityProbe
		v float64
	}
}

func (r *recordingListener) ObserveStability(p StabilityProbe, v float64) {
	r.mu.Lock()
	r.samples = append(r.samples, struct {
		p StabilityProbe
		v float64
	}{p, v})
	r.mu.Unlock()
}

// TestStabilityListenerStream asserts the listener sees every sample in
// order, including non-finite ones, and survives Reset.
func TestStabilityListenerStream(t *testing.T) {
	c := New()
	r := &recordingListener{}
	c.SetStabilityListener(r)
	c.SampleWrapDrift(1e-9)
	c.SampleUDTCond(math.NaN())
	c.Reset()
	c.SampleStratResidual(3e-13)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) != 3 {
		t.Fatalf("listener saw %d samples, want 3 (must survive Reset)", len(r.samples))
	}
	if r.samples[0].p != ProbeWrapDrift || r.samples[0].v != 1e-9 {
		t.Fatalf("sample 0: %+v", r.samples[0])
	}
	if r.samples[1].p != ProbeUDTCond || !math.IsNaN(r.samples[1].v) {
		t.Fatalf("sample 1 must deliver the raw NaN: %+v", r.samples[1])
	}
	if r.samples[2].p != ProbeStratResidual || r.samples[2].v != 3e-13 {
		t.Fatalf("sample 2: %+v", r.samples[2])
	}
	c.SetStabilityListener(nil)
	c.SampleWrapDrift(1)
	if len(r.samples) != 3 {
		t.Fatal("detached listener still receives samples")
	}
}

func TestProbeNames(t *testing.T) {
	want := []string{"wrap_drift", "strat_residual", "udt_cond"}
	for p := StabilityProbe(0); p < NumProbes; p++ {
		if p.String() != want[p] {
			t.Fatalf("probe %d name %q, want %q", p, p.String(), want[p])
		}
	}
}

func TestMetricsDocumentShape(t *testing.T) {
	c := New()
	c.End(PhaseRefresh, c.Begin())
	c.Finish()
	m := c.Metrics()
	for p := Phase(0); p < NumPhases; p++ {
		if _, ok := m.PhaseMS[p.String()]; !ok {
			t.Fatalf("phase_ms missing key %q", p)
		}
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMetrics(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.WallMS != m.WallMS || len(back.PhaseMS) != len(m.PhaseMS) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, m)
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	c.End(PhaseWrap, c.Begin())
	c.SampleWrapDrift(1)
	c.SampleStratResidual(1)
	c.SampleUDTCond(1)
	c.Reset()
	c.Finish()
	if c.Wall() != 0 || c.PhaseDurations() != (PhaseDurations{}) {
		t.Fatal("nil collector returned nonzero state")
	}
	m := c.Metrics()
	if m == nil || m.WallMS != 0 {
		t.Fatalf("nil collector metrics: %+v", m)
	}
}

// TestNilCollectorZeroAlloc is the alloc-regression gate for the disabled
// path: every hot-loop entry point on a nil collector (and the global
// counters, which are always on) must allocate nothing.
func TestNilCollectorZeroAlloc(t *testing.T) {
	var c *Collector
	allocs := testing.AllocsPerRun(1000, func() {
		start := c.Begin()
		c.End(PhaseFlush, start)
		c.SampleWrapDrift(1e-12)
		Add(OpWraps, 1)
		AddGemm(8, 8, 8)
	})
	if allocs != 0 {
		t.Fatalf("disabled-collector hot path allocates %v/op, want 0", allocs)
	}
}

// TestEnabledCollectorZeroAlloc asserts the enabled hot path is also
// allocation-free (timers are atomic adds, samples take a mutex only).
func TestEnabledCollectorZeroAlloc(t *testing.T) {
	c := New()
	allocs := testing.AllocsPerRun(1000, func() {
		start := c.Begin()
		c.End(PhaseFlush, start)
		c.SampleWrapDrift(1e-12)
		Add(OpWraps, 1)
	})
	if allocs != 0 {
		t.Fatalf("enabled-collector hot path allocates %v/op, want 0", allocs)
	}
}

// charged returns the document of a collector charged d[p] per phase.
func charged(d PhaseDurations) *Metrics {
	c := New()
	for p, v := range d {
		c.Charge(Phase(p), v)
	}
	return c.Metrics()
}

func TestPhaseLabels(t *testing.T) {
	want := []string{"Delayed rank-1 update", "Stratification", "Clustering", "Wrapping", "Physical meas."}
	for i, p := range tableRows {
		if p.Label() != want[i] {
			t.Fatalf("Table I row %d is %q, want %q", i, p.Label(), want[i])
		}
	}
	if Phase(99).Label() != "unknown" {
		t.Fatal("out-of-range phase label")
	}
}

func TestPercentagesSumTo100(t *testing.T) {
	m := charged(PhaseDurations{PhaseFlush: time.Second, PhaseRefresh: 2 * time.Second, PhaseMeasure: time.Second})
	var total float64
	for _, v := range m.PhasePercent {
		total += v
	}
	if math.Abs(total-100) > 1e-9 {
		t.Fatalf("percentages sum to %v", total)
	}
	if m.PhasePercent["refresh"] != 50 {
		t.Fatalf("refresh share = %v", m.PhasePercent["refresh"])
	}
}

// TestEmptyProfile: with no phase time the shares are 0, never NaN, so the
// document marshals and the table renders.
func TestEmptyProfile(t *testing.T) {
	m := charged(PhaseDurations{})
	for k, v := range m.PhasePercent {
		if v != 0 {
			t.Fatalf("empty document has %s share %v", k, v)
		}
	}
	if _, err := json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if tbl := Table(m); strings.Count(tbl, "0.0%") != int(NumPhases) {
		t.Fatalf("table of an empty document:\n%s", tbl)
	}
}

// TestTableOutput: rows carry the paper's labels in the paper's order, one
// column per document.
func TestTableOutput(t *testing.T) {
	a := charged(PhaseDurations{PhaseRefresh: 3 * time.Second, PhaseWrap: time.Second})
	b := charged(PhaseDurations{PhaseFlush: time.Second})
	rows := strings.Split(strings.TrimSuffix(Table(a, b), "\n"), "\n")
	if len(rows) != int(NumPhases) {
		t.Fatalf("table has %d rows:\n%v", len(rows), rows)
	}
	for i, p := range tableRows {
		if !strings.HasPrefix(rows[i], p.Label()) {
			t.Fatalf("row %d is %q, want label %q", i, rows[i], p.Label())
		}
	}
	if f := strings.Fields(rows[0]); f[len(f)-2] != "0.0%" || f[len(f)-1] != "100.0%" {
		t.Fatalf("delayed-update row %q, want 0.0%% and 100.0%%", rows[0])
	}
	if f := strings.Fields(rows[1]); f[len(f)-2] != "75.0%" || f[len(f)-1] != "0.0%" {
		t.Fatalf("stratification row %q, want 75.0%% and 0.0%%", rows[1])
	}
}

func TestMergeMetrics(t *testing.T) {
	a := charged(PhaseDurations{PhaseWrap: 3 * time.Second, PhaseMeasure: time.Second})
	a.WallMS, a.ForkWaitMS = 5000, 1.5
	a.Ops = OpMetrics{GemmCalls: 10, GemmFlops: 4e9, Sweeps: 7, GraphNodes: 3}
	a.Stability = StabilityMetrics{
		MaxWrapDrift: 1e-9, WrapDriftSamples: 4,
		MaxStratResidual: 1e-12, MeanStratResidual: 1e-13, StratResidualSamples: 1,
		MaxUDTCondLog10: 8, MeanUDTCondLog10: 6, UDTCondSamples: 2,
	}
	a.Devices = []DeviceMetrics{{Device: "dev0"}}
	a.Autopilot = &AutopilotMetrics{Enabled: true}
	b := charged(PhaseDurations{PhaseWrap: time.Second, PhaseMeasure: 5 * time.Second})
	b.WallMS, b.ForkWaitMS = 8000, 2
	b.Ops = OpMetrics{GemmCalls: 5, GemmFlops: 4e9, Sweeps: 7, GraphNodes: 1}
	b.Stability = StabilityMetrics{
		MaxWrapDrift: 3e-9, WrapDriftSamples: 6,
		MaxStratResidual: 5e-13, MeanStratResidual: 5e-13, StratResidualSamples: 3,
		NonFiniteUDTCond: 2, NonFiniteSeen: true,
	}
	b.Devices = []DeviceMetrics{{Device: "dev0"}, {Device: "dev1"}}

	m := MergeMetrics([]*Metrics{a, nil, b})
	if m.SchemaVersion != MetricsSchemaVersion || m.WallMS != 8000 || m.ForkWaitMS != 3.5 {
		t.Fatalf("stamp %q wall %v fork wait %v, want the current version, the longest run's 8000 and the summed 3.5",
			m.SchemaVersion, m.WallMS, m.ForkWaitMS)
	}
	if w := m.WithoutTimings(); w.ForkWaitMS != 0 || w.WallMS != 0 {
		t.Fatalf("WithoutTimings kept fork wait %v, wall %v", w.ForkWaitMS, w.WallMS)
	}
	if m.PhaseMS["wrap"] != 4000 || m.PhaseMS["measure"] != 6000 || m.PhasePercent["wrap"] != 40 || m.PhaseCoverage != 1.25 {
		t.Fatalf("phases %v shares %v coverage %v", m.PhaseMS, m.PhasePercent, m.PhaseCoverage)
	}
	if want := (OpMetrics{GemmCalls: 15, GemmFlops: 8e9, Sweeps: 14, GraphNodes: 4}); m.Ops != want || m.GemmGFlops != 1 {
		t.Fatalf("ops %+v at %v GFlop/s, want %+v at 1", m.Ops, m.GemmGFlops, want)
	}
	s := m.Stability
	if s.MaxWrapDrift != 3e-9 || s.WrapDriftSamples != 10 || s.MaxStratResidual != 1e-12 || s.StratResidualSamples != 4 ||
		math.Abs(s.MeanStratResidual-4e-13) > 1e-25 || s.MaxUDTCondLog10 != 8 || s.MeanUDTCondLog10 != 6 ||
		s.UDTCondSamples != 2 || s.NonFiniteUDTCond != 2 || !s.NonFiniteSeen {
		t.Fatalf("stability %+v", s)
	}
	if len(m.Devices) != 3 || m.Autopilot != nil {
		t.Fatalf("devices %v autopilot %v, want 3 concatenated and no per-chain section", m.Devices, m.Autopilot)
	}
	if MergeMetrics([]*Metrics{nil, nil}) != nil {
		t.Fatal("nothing to merge must give no document")
	}
}
