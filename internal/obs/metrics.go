package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"questgo/internal/schema"
)

// MetricsSchemaVersion is the wire version of the metrics document. The
// major is bumped whenever a field is renamed, retyped or removed; purely
// additive changes bump the minor. 2.0 removed ops.peer_bytes; 2.1 added
// fork_wait_ms.
const MetricsSchemaVersion = "2.1"

// Metrics is the stable JSON metrics document exported from a run: the
// per-phase wall-time breakdown (the paper's Table-I rows in machine form),
// the op-counter deltas, and the stability telemetry. Field names and the
// phase/op key sets are a compatibility surface — downstream tooling diffs
// these documents across runs; DecodeMetrics is the read path that enforces
// it.
type Metrics struct {
	SchemaVersion string `json:"schema_version,omitempty"`

	WallMS float64 `json:"wall_ms"`
	// PhaseMS maps phase name -> accumulated milliseconds; PhasePercent is
	// each phase's share of the phase total.
	PhaseMS      map[string]float64 `json:"phase_ms"`
	PhasePercent map[string]float64 `json:"phase_percent"`
	// PhaseCoverage is sum(phase)/wall — how much of the wall time the
	// instrumented phases account for (1.0 = everything; parallel walkers
	// sharing one collector can exceed 1).
	PhaseCoverage float64 `json:"phase_coverage"`
	// ForkWaitMS is the time the timed spin forks (the per-slice steps from
	// update's crossover N up, and every boundary) took beyond their longer
	// sector: the pool hand-off and the join wait, or the shorter sector
	// whenever no worker was idle. It lies inside the phase times, not beside
	// them, and is 0 under serial spins.
	ForkWaitMS float64 `json:"fork_wait_ms"`

	Ops OpMetrics `json:"ops"`
	// GemmGFlops is the derived host GEMM rate over the wall time.
	GemmGFlops float64 `json:"gemm_gflops"`

	Stability StabilityMetrics `json:"stability"`

	// Autopilot records the stability controller's decisions when the run
	// had one attached (nil otherwise — the field is owned by
	// internal/autopilot and only carried here so it rides the same
	// document).
	Autopilot *AutopilotMetrics `json:"autopilot,omitempty"`

	// Devices carries one entry per simulated accelerator when the run
	// offloaded to internal/gpu (empty otherwise). The entries are filled
	// by the runner from the device counters; obs only defines the schema.
	Devices []DeviceMetrics `json:"devices,omitempty"`
}

// WithoutTimings returns a copy of m with the fields that measure elapsed
// time zeroed: wall_ms, phase_ms, phase_percent, phase_coverage,
// fork_wait_ms and gemm_gflops. They are the document's only
// declared-nondeterministic fields: everything else, including any field
// added later, is a function of the configuration and its engine, and
// repeats bit for bit whatever the GOMAXPROCS or spin forking of a run alone
// in its process (the op counters are process-global).
func (m Metrics) WithoutTimings() Metrics {
	m.WallMS, m.PhaseMS, m.PhasePercent, m.PhaseCoverage, m.ForkWaitMS, m.GemmGFlops = 0, nil, nil, 0, 0, 0
	return m
}

// DeviceMetrics is one simulated accelerator's end-of-run counter snapshot:
// the modeled clock, how much of it was fixed launch/latency overhead (the
// part command graphs amortize), the work totals, and the memory
// high-water mark.
type DeviceMetrics struct {
	Device           string  `json:"device"`
	ClockMS          float64 `json:"clock_ms"`
	LaunchOverheadMS float64 `json:"launch_overhead_ms"`
	ModeledGFlops    float64 `json:"modeled_gflops"`
	Flops            int64   `json:"flops"`
	TransferredBytes int64   `json:"transferred_bytes"`
	Kernels          int64   `json:"kernels"`
	MaxAllocBytes    int64   `json:"max_alloc_bytes"`
}

// OpMetrics holds the op-counter deltas of a run.
type OpMetrics struct {
	GemmCalls         int64 `json:"gemm_calls"`
	GemmFlops         int64 `json:"gemm_flops"`
	QRFactorizations  int64 `json:"qr_factorizations"`
	QRPFactorizations int64 `json:"qrp_factorizations"`
	QRPPanels         int64 `json:"qrp_panels"`
	UDTSteps          int64 `json:"udt_steps"`
	DelayedFlushes    int64 `json:"delayed_flushes"`
	Wraps             int64 `json:"wraps"`
	Sweeps            int64 `json:"sweeps"`
	DeviceFlops       int64 `json:"device_flops,omitempty"`
	DeviceBytes       int64 `json:"device_bytes,omitempty"`
	DeviceKernels     int64 `json:"device_kernels,omitempty"`
	GraphReplays      int64 `json:"graph_replays,omitempty"`
	GraphNodes        int64 `json:"graph_nodes,omitempty"`
}

// fromCounts maps an OpCounts delta onto the named document fields.
func fromCounts(d OpCounts) OpMetrics {
	return OpMetrics{
		GemmCalls:         d[OpGemmCalls],
		GemmFlops:         d[OpGemmFlops],
		QRFactorizations:  d[OpQRFactorizations],
		QRPFactorizations: d[OpQRPFactorizations],
		QRPPanels:         d[OpQRPPanels],
		UDTSteps:          d[OpUDTSteps],
		DelayedFlushes:    d[OpDelayedFlushes],
		Wraps:             d[OpWraps],
		Sweeps:            d[OpSweeps],
		DeviceFlops:       d[OpDeviceFlops],
		DeviceBytes:       d[OpDeviceBytes],
		DeviceKernels:     d[OpDeviceKernels],
		GraphReplays:      d[OpGraphReplays],
		GraphNodes:        d[OpGraphNodes],
	}
}

// add accumulates o into m field by field.
func (m *OpMetrics) add(o OpMetrics) {
	m.GemmCalls += o.GemmCalls
	m.GemmFlops += o.GemmFlops
	m.QRFactorizations += o.QRFactorizations
	m.QRPFactorizations += o.QRPFactorizations
	m.QRPPanels += o.QRPPanels
	m.UDTSteps += o.UDTSteps
	m.DelayedFlushes += o.DelayedFlushes
	m.Wraps += o.Wraps
	m.Sweeps += o.Sweeps
	m.DeviceFlops += o.DeviceFlops
	m.DeviceBytes += o.DeviceBytes
	m.DeviceKernels += o.DeviceKernels
	m.GraphReplays += o.GraphReplays
	m.GraphNodes += o.GraphNodes
}

// StabilityMetrics summarizes the sampled numerical diagnostics. Zero
// sample counts mean the corresponding probe never ran (e.g. the
// stratification residual check is off by default); with zero samples the
// max and mean fields are exactly 0, never NaN, so the document always
// marshals. Max/mean/samples cover finite samples only — non-finite
// readings (NaN, ±Inf) are reported through the NonFinite* counts and the
// sticky NonFiniteSeen flag instead of silently vanishing from the maxima.
type StabilityMetrics struct {
	// MaxWrapDrift is the largest relative difference between a wrapped
	// Green's function and its stratified recomputation — the diagnostic
	// that motivates the wrapping limit l = k.
	MaxWrapDrift     float64 `json:"max_wrap_drift"`
	WrapDriftSamples int64   `json:"wrap_drift_samples"`
	// MaxStratResidual / MeanStratResidual compare the prefix/suffix UDT
	// stack's boundary Green's function against a full Loh-stratification
	// rebuild (<= ~1e-12 for a healthy stack).
	MaxStratResidual     float64 `json:"max_strat_residual"`
	MeanStratResidual    float64 `json:"mean_strat_residual"`
	StratResidualSamples int64   `json:"strat_residual_samples"`
	// MaxUDTCondLog10 / MeanUDTCondLog10 estimate the dynamic range the
	// graded decomposition absorbs: log10(max|D|/min|D|).
	MaxUDTCondLog10  float64 `json:"max_udt_cond_log10"`
	MeanUDTCondLog10 float64 `json:"mean_udt_cond_log10"`
	UDTCondSamples   int64   `json:"udt_cond_samples"`
	// NonFinite* count NaN/±Inf samples per probe; NonFiniteSeen is true if
	// any probe ever produced one. A run with NonFiniteSeen set blew up
	// numerically no matter what the finite aggregates say.
	NonFiniteWrapDrift     int64 `json:"non_finite_wrap_drift,omitempty"`
	NonFiniteStratResidual int64 `json:"non_finite_strat_residual,omitempty"`
	NonFiniteUDTCond       int64 `json:"non_finite_udt_cond,omitempty"`
	NonFiniteSeen          bool  `json:"non_finite_seen,omitempty"`
}

// metrics maps the internal per-probe aggregates onto the named document
// fields, guarding every mean against zero samples.
func (s stability) metrics() StabilityMetrics {
	m := StabilityMetrics{
		MaxWrapDrift:           s.max[ProbeWrapDrift],
		WrapDriftSamples:       s.n[ProbeWrapDrift],
		MaxStratResidual:       s.max[ProbeStratResidual],
		StratResidualSamples:   s.n[ProbeStratResidual],
		MaxUDTCondLog10:        s.max[ProbeUDTCond],
		UDTCondSamples:         s.n[ProbeUDTCond],
		NonFiniteWrapDrift:     s.nonFinite[ProbeWrapDrift],
		NonFiniteStratResidual: s.nonFinite[ProbeStratResidual],
		NonFiniteUDTCond:       s.nonFinite[ProbeUDTCond],
		NonFiniteSeen:          s.nonFiniteSeen,
	}
	if n := s.n[ProbeStratResidual]; n > 0 {
		m.MeanStratResidual = s.sum[ProbeStratResidual] / float64(n)
	}
	if n := s.n[ProbeUDTCond]; n > 0 {
		m.MeanUDTCondLog10 = s.sum[ProbeUDTCond] / float64(n)
	}
	return m
}

// add folds another run's aggregates into s: the larger maximum, summed
// sample and non-finite counts, sample-weighted means.
func (s *StabilityMetrics) add(o StabilityMetrics) {
	s.MaxWrapDrift = max(s.MaxWrapDrift, o.MaxWrapDrift)
	s.WrapDriftSamples += o.WrapDriftSamples
	s.MaxStratResidual = max(s.MaxStratResidual, o.MaxStratResidual)
	s.MeanStratResidual = weightedMean(s.MeanStratResidual, s.StratResidualSamples, o.MeanStratResidual, o.StratResidualSamples)
	s.StratResidualSamples += o.StratResidualSamples
	s.MaxUDTCondLog10 = max(s.MaxUDTCondLog10, o.MaxUDTCondLog10)
	s.MeanUDTCondLog10 = weightedMean(s.MeanUDTCondLog10, s.UDTCondSamples, o.MeanUDTCondLog10, o.UDTCondSamples)
	s.UDTCondSamples += o.UDTCondSamples
	s.NonFiniteWrapDrift += o.NonFiniteWrapDrift
	s.NonFiniteStratResidual += o.NonFiniteStratResidual
	s.NonFiniteUDTCond += o.NonFiniteUDTCond
	s.NonFiniteSeen = s.NonFiniteSeen || o.NonFiniteSeen
}

// weightedMean combines two means over na and nb samples (0 with no samples,
// like every mean of the document).
func weightedMean(a float64, na int64, b float64, nb int64) float64 {
	if na+nb == 0 {
		return 0
	}
	return (a*float64(na) + b*float64(nb)) / float64(na+nb)
}

// AutopilotMetrics is the stability controller's section of the metrics
// document: where the run ended up, how it got there, and whether the
// controller ever had to slam the brakes. The types live here (not in
// internal/autopilot) because autopilot imports obs for the sample stream.
type AutopilotMetrics struct {
	Enabled bool `json:"enabled"`
	// InitialK/FinalK and InitialCheckEvery/FinalCheckEvery bracket the
	// controller's trajectory; Shrinks/Grows count the moves between them.
	InitialK          int `json:"initial_k"`
	FinalK            int `json:"final_k"`
	InitialCheckEvery int `json:"initial_check_every"`
	FinalCheckEvery   int `json:"final_check_every"`
	Shrinks           int `json:"shrinks"`
	Grows             int `json:"grows"`
	// KCap is the hysteresis ceiling: once a k breaches a stability
	// ceiling the controller never grows back past it.
	KCap int `json:"k_cap"`
	// NonFiniteEvents counts emergency shrinks triggered by NaN/Inf
	// samples; NonFinite is the matching sticky flag.
	NonFiniteEvents int  `json:"non_finite_events,omitempty"`
	NonFinite       bool `json:"non_finite,omitempty"`
	// Decisions is the (capped) change log, one entry per accepted move.
	Decisions []AutopilotDecision `json:"decisions,omitempty"`
}

// AutopilotDecision records one accepted controller move.
type AutopilotDecision struct {
	Sweep      int     `json:"sweep"`
	K          int     `json:"k"`
	CheckEvery int     `json:"check_every"`
	Reason     string  `json:"reason"`
	Signal     float64 `json:"signal"`
}

// Metrics builds the exportable document from the collector's current
// state. Safe on a nil collector (returns an empty document). This is the
// cold path: it allocates freely.
func (c *Collector) Metrics() *Metrics {
	m := &Metrics{
		SchemaVersion: MetricsSchemaVersion,
		PhaseMS:       map[string]float64{},
		PhasePercent:  map[string]float64{},
	}
	for p, d := range c.PhaseDurations() {
		m.PhaseMS[Phase(p).String()] = float64(d) / float64(time.Millisecond)
	}
	m.WallMS = float64(c.Wall()) / float64(time.Millisecond)
	m.Ops = fromCounts(c.OpDeltas())
	if c != nil {
		m.ForkWaitMS = float64(atomic.LoadInt64(&c.forkWait)) / float64(time.Millisecond)
		c.mu.Lock()
		m.Stability = c.stab.metrics()
		c.mu.Unlock()
	}
	m.derive()
	return m
}

// derive fills the fields that are functions of the others: each phase's
// share of the phase total, the coverage of the wall time, and the host GEMM
// rate.
func (m *Metrics) derive() {
	var total float64
	for p := Phase(0); p < NumPhases; p++ {
		total += m.PhaseMS[p.String()]
	}
	for p := Phase(0); p < NumPhases; p++ {
		key := p.String()
		m.PhasePercent[key] = 0
		if total > 0 {
			m.PhasePercent[key] = 100 * m.PhaseMS[key] / total
		}
	}
	if m.WallMS > 0 {
		m.PhaseCoverage = total / m.WallMS
		m.GemmGFlops = float64(m.Ops.GemmFlops) / m.WallMS / 1e6
	}
}

// MergeMetrics folds the documents of independent runs of one configuration
// (the shards of a service job) into one: phase times summed with shares and
// coverage recomputed, the wall time of the longest run, stability
// aggregates folded, device sections concatenated, op counts summed and the
// GEMM rate recomputed. Nil documents are skipped; with none to merge the
// result is nil. The autopilot section is per chain and is not carried.
//
// The caveat of every shard's own document applies to the sum: the op
// counters are process-global, so the deltas of shards that ran concurrently
// overlap and the merged counts can exceed the job's own work.
func MergeMetrics(docs []*Metrics) *Metrics {
	var out *Metrics
	for _, d := range docs {
		if d == nil {
			continue
		}
		if out == nil {
			out = (*Collector)(nil).Metrics()
		}
		for p := Phase(0); p < NumPhases; p++ {
			out.PhaseMS[p.String()] += d.PhaseMS[p.String()]
		}
		out.WallMS = max(out.WallMS, d.WallMS)
		out.ForkWaitMS += d.ForkWaitMS
		out.Ops.add(d.Ops)
		out.Stability.add(d.Stability)
		out.Devices = append(out.Devices, d.Devices...)
	}
	if out != nil {
		out.derive()
	}
	return out
}

// Table renders the paper's Table I from metrics documents: one row per
// phase under the paper's label and in the paper's order, one column per
// document holding the phase's share of that run's phase time.
func Table(docs ...*Metrics) string {
	var sb strings.Builder
	for _, p := range tableRows {
		fmt.Fprintf(&sb, "%-24s", p.Label())
		for _, d := range docs {
			fmt.Fprintf(&sb, " %6.1f%%", d.PhasePercent[p.String()])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// DecodeMetrics parses a metrics document, rejecting incompatible schema
// majors (a document without a schema_version predates versioning and is
// read as current). This is the entry point downstream tooling should use
// instead of raw json.Unmarshal, so a producer/reader mismatch fails at the
// boundary.
func DecodeMetrics(data []byte) (*Metrics, error) {
	var m Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if err := schema.Check(m.SchemaVersion, MetricsSchemaVersion); err != nil {
		return nil, fmt.Errorf("obs: metrics: %w", err)
	}
	return &m, nil
}
