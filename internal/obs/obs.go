// Package obs is the instrumentation layer of the DQMC pipeline: per-phase
// monotonic timers, process-wide operation counters registered by the
// kernel packages (blas, lapack, greens, update, gpu), and
// numerical-stability telemetry sampled during sweeps.
//
// Design constraints (the sweep hot loop calls into this package many times
// per slice):
//
//   - Zero allocation on every hot-path entry point: Begin/End pass a
//     time.Time by value, op counters are plain atomic adds, stability
//     samples touch a mutex only at cluster-boundary frequency.
//   - A nil *Collector is fully valid and compiles down to a pointer check:
//     disabled collection costs one predictable branch per call and zero
//     allocations (asserted by TestNilCollectorZeroAlloc).
//
// The op counters are process-global (like a runtime/metrics view): the
// producing packages cannot carry a collector handle through every kernel
// call, so they charge shared atomic counters and a Collector snapshots
// them at construction/Reset and reports deltas. Within one command this
// gives exact per-run counts; concurrent runs in one process (parallel
// walkers) share the counters, which Run handles by snapshotting around the
// whole walker group.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Phase labels one section of the sweep loop. The five phases partition the
// wall time of a simulation run: wrapping, the delayed-update block
// (proposals, acceptances and flushes), cluster recomputation, the
// stratified boundary refresh (stack advance + Green's evaluation), and
// physical measurements.
type Phase uint8

const (
	PhaseWrap Phase = iota
	PhaseFlush
	PhaseCluster
	PhaseRefresh
	PhaseMeasure
	NumPhases
)

// String returns the stable lower-case key used in the JSON metrics
// document ("wrap", "flush", "cluster", "refresh", "measure").
func (p Phase) String() string {
	switch p {
	case PhaseWrap:
		return "wrap"
	case PhaseFlush:
		return "flush"
	case PhaseCluster:
		return "cluster"
	case PhaseRefresh:
		return "refresh"
	case PhaseMeasure:
		return "measure"
	}
	return "unknown"
}

// Label returns the phase's row label in the paper's Table I.
func (p Phase) Label() string {
	switch p {
	case PhaseWrap:
		return "Wrapping"
	case PhaseFlush:
		return "Delayed rank-1 update"
	case PhaseCluster:
		return "Clustering"
	case PhaseRefresh:
		return "Stratification"
	case PhaseMeasure:
		return "Physical meas."
	}
	return "unknown"
}

// tableRows is the row order of the paper's Table I.
var tableRows = [NumPhases]Phase{PhaseFlush, PhaseRefresh, PhaseCluster, PhaseWrap, PhaseMeasure}

// PhaseDurations is a by-value snapshot of accumulated time per phase.
type PhaseDurations [NumPhases]time.Duration

// Op identifies one process-global operation counter.
type Op uint8

const (
	// OpGemmCalls counts host blas.Gemm invocations; OpGemmFlops their
	// nominal 2mnk flop total. Device GEMMs executed by the simulated GPU
	// also run through the host kernel and therefore appear here too.
	OpGemmCalls Op = iota
	OpGemmFlops
	// OpQRFactorizations / OpQRPFactorizations count blocked QR (DGEQRF)
	// and column-pivoted QR (DGEQP3) factorizations.
	OpQRFactorizations
	OpQRPFactorizations
	// OpQRPPanels counts the pre-pivoted panels processed by the blocked
	// QRP (~n/qrpBlock per factorization): the unit of its level-3
	// trailing updates and aggregated norm downdates.
	OpQRPPanels
	// OpUDTSteps counts cluster-level UDT factorization steps (one per
	// matrix absorbed into a decomposition, plus one per stack combine).
	OpUDTSteps
	// OpDelayedFlushes counts non-empty delayed-update block flushes
	// (G += U W^T applications).
	OpDelayedFlushes
	// OpWraps counts single-slice wrapping steps G <- B G B^{-1} (one per
	// spin per slice).
	OpWraps
	// OpSweeps counts full Metropolis sweeps.
	OpSweeps
	// OpDeviceFlops / OpDeviceBytes / OpDeviceKernels are charged by the
	// simulated GPU device: modeled kernel flops, host<->device bytes
	// moved, and kernel launches.
	OpDeviceFlops
	OpDeviceBytes
	OpDeviceKernels
	// OpGraphReplays / OpGraphNodes are charged by command-graph replay:
	// one replay per launch of a recorded sequence, plus the number of
	// recorded nodes it executed (the launches amortized away).
	OpGraphReplays
	OpGraphNodes
	NumOps
)

// String returns the stable snake_case key used in the JSON metrics
// document.
func (o Op) String() string {
	switch o {
	case OpGemmCalls:
		return "gemm_calls"
	case OpGemmFlops:
		return "gemm_flops"
	case OpQRFactorizations:
		return "qr_factorizations"
	case OpQRPFactorizations:
		return "qrp_factorizations"
	case OpQRPPanels:
		return "qrp_panels"
	case OpUDTSteps:
		return "udt_steps"
	case OpDelayedFlushes:
		return "delayed_flushes"
	case OpWraps:
		return "wraps"
	case OpSweeps:
		return "sweeps"
	case OpDeviceFlops:
		return "device_flops"
	case OpDeviceBytes:
		return "device_bytes"
	case OpDeviceKernels:
		return "device_kernels"
	case OpGraphReplays:
		return "graph_replays"
	case OpGraphNodes:
		return "graph_nodes"
	}
	return "unknown"
}

// ops holds the process-global counters. Plain atomic adds: the cheapest
// always-on instrumentation, dwarfed by the O(n^3) work of every call site.
var ops [NumOps]int64

// Add charges n to the global counter op.
func Add(op Op, n int64) { atomic.AddInt64(&ops[op], n) }

// AddGemm charges one host GEMM call of result shape m x n with inner
// dimension k (nominal 2mnk flops).
func AddGemm(m, n, k int) {
	atomic.AddInt64(&ops[OpGemmCalls], 1)
	atomic.AddInt64(&ops[OpGemmFlops], 2*int64(m)*int64(n)*int64(k))
}

// Total returns the current global value of op.
func Total(op Op) int64 { return atomic.LoadInt64(&ops[op]) }

// OpCounts is a by-value snapshot of every global counter.
type OpCounts [NumOps]int64

// Counts snapshots all global counters.
func Counts() OpCounts {
	var c OpCounts
	for i := range c {
		c[i] = atomic.LoadInt64(&ops[i])
	}
	return c
}

// Sub returns c - prev element-wise (the counts accumulated since prev was
// taken).
func (c OpCounts) Sub(prev OpCounts) OpCounts {
	var d OpCounts
	for i := range c {
		d[i] = c[i] - prev[i]
	}
	return d
}

// StabilityProbe identifies one of the numerical-stability diagnostics the
// sweep samples: wrap drift, stack-vs-rebuild stratification residual, and
// the UDT condition estimate (log10 of max|D|/min|D|).
type StabilityProbe uint8

const (
	ProbeWrapDrift StabilityProbe = iota
	ProbeStratResidual
	ProbeUDTCond
	NumProbes
)

// String returns the stable snake_case probe key.
func (p StabilityProbe) String() string {
	switch p {
	case ProbeWrapDrift:
		return "wrap_drift"
	case ProbeStratResidual:
		return "strat_residual"
	case ProbeUDTCond:
		return "udt_cond"
	}
	return "unknown"
}

// StabilityListener receives every stability sample as it is recorded — the
// streaming counterpart of the end-of-run StabilityMetrics aggregates, and
// the input side of the feedback controller in internal/autopilot.
//
// ObserveStability is called from the sweep's refresh path, possibly from
// two goroutines at once (the spin-parallel phases), so implementations
// must be safe for concurrent use and must not block: the sweep waits on
// them at cluster-boundary frequency. Non-finite samples are delivered
// unfiltered — a NaN reading is precisely the blow-up a listener exists to
// react to.
type StabilityListener interface {
	ObserveStability(p StabilityProbe, v float64)
}

// Collector accumulates one run's phase timings, op-counter deltas and
// stability telemetry. All methods are safe on a nil receiver (no-ops) and
// safe for concurrent use; the hot-path methods never allocate.
type Collector struct {
	phaseNS   [NumPhases]int64 // atomic
	startOps  OpCounts
	startTime time.Time
	wallNS    int64 // atomic; set by Finish, 0 while running

	mu       sync.Mutex
	stab     stability
	listener StabilityListener
}

// stability aggregates the sampled numerical diagnostics per probe. Only
// finite samples enter max/sum/n — a NaN would otherwise never update the
// running max (NaN > x is false) and would poison the sum, so the run
// would report "stable" through the exact blow-up the probes exist to
// catch. Non-finite samples are counted separately with a sticky flag.
type stability struct {
	max           [NumProbes]float64
	sum           [NumProbes]float64
	n             [NumProbes]int64
	nonFinite     [NumProbes]int64
	nonFiniteSeen bool
}

// New returns a collector whose wall clock and op baseline start now.
func New() *Collector {
	c := &Collector{}
	c.Reset()
	return c
}

// Enabled reports whether collection is active (non-nil receiver).
func (c *Collector) Enabled() bool { return c != nil }

// Reset zeroes the phase timers and stability samples and re-baselines the
// wall clock and op counters. Run calls it once on entry so setup work
// (cluster building, stack construction) is excluded from the run's
// breakdown.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for i := range c.phaseNS {
		atomic.StoreInt64(&c.phaseNS[i], 0)
	}
	atomic.StoreInt64(&c.wallNS, 0)
	c.startOps = Counts()
	c.startTime = time.Now()
	c.mu.Lock()
	c.stab = stability{}
	c.mu.Unlock()
}

// Begin starts a phase timer. On a nil collector it returns the zero Time
// without reading the clock.
func (c *Collector) Begin() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// End accumulates the time since start into phase p. Pair with Begin:
//
//	start := c.Begin()
//	... phase work ...
//	c.End(obs.PhaseWrap, start)
func (c *Collector) End(p Phase, start time.Time) {
	if c == nil {
		return
	}
	c.Charge(p, time.Since(start))
}

// Lap is End followed by Begin on one clock reading: it accumulates the time
// since start into phase p and returns the stamp the next phase starts at.
func (c *Collector) Lap(p Phase, start time.Time) time.Time {
	if c == nil {
		return time.Time{}
	}
	now := time.Now()
	c.Charge(p, now.Sub(start))
	return now
}

// Charge accumulates d into phase p, for callers that measured the interval
// themselves (the spin fork splits one interval over several phases).
func (c *Collector) Charge(p Phase, d time.Duration) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.phaseNS[p], int64(d))
}

// Finish stamps the run's wall time. Metrics taken after Finish report the
// frozen wall; before, the wall is read live.
func (c *Collector) Finish() {
	if c == nil {
		return
	}
	atomic.StoreInt64(&c.wallNS, int64(time.Since(c.startTime)))
}

// Wall returns the run's wall time: frozen if Finish was called, live
// otherwise.
func (c *Collector) Wall() time.Duration {
	if c == nil {
		return 0
	}
	if w := atomic.LoadInt64(&c.wallNS); w != 0 {
		return time.Duration(w)
	}
	return time.Since(c.startTime)
}

// PhaseDurations snapshots the accumulated time per phase.
func (c *Collector) PhaseDurations() PhaseDurations {
	var pd PhaseDurations
	if c == nil {
		return pd
	}
	for i := range pd {
		pd[i] = time.Duration(atomic.LoadInt64(&c.phaseNS[i]))
	}
	return pd
}

// OpDeltas returns the op counts accumulated since the last Reset.
func (c *Collector) OpDeltas() OpCounts {
	if c == nil {
		return OpCounts{}
	}
	return Counts().Sub(c.startOps)
}

// SetStabilityListener attaches l to receive every subsequent stability
// sample (nil detaches). The listener survives Reset: it belongs to the
// run's control plane, not to the aggregates being rebaselined. Safe on a
// nil collector (no-op: with collection disabled there is no sample stream
// to observe).
func (c *Collector) SetStabilityListener(l StabilityListener) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.listener = l
	c.mu.Unlock()
}

// SampleStability records one reading of probe p. Finite samples enter the
// per-probe max/sum/count aggregates; non-finite samples (NaN, ±Inf) are
// counted separately and set a sticky flag so the Metrics document can
// never report a blown-up run as stable. Either way the attached listener
// (if any) sees the raw value, outside the collector's lock.
func (c *Collector) SampleStability(p StabilityProbe, v float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		c.stab.nonFinite[p]++
		c.stab.nonFiniteSeen = true
	} else {
		if v > c.stab.max[p] {
			c.stab.max[p] = v
		}
		c.stab.sum[p] += v
		c.stab.n[p]++
	}
	l := c.listener
	c.mu.Unlock()
	if l != nil {
		l.ObserveStability(p, v)
	}
}

// SampleWrapDrift records one relative difference between a wrapped Green's
// function and its stratified recomputation.
func (c *Collector) SampleWrapDrift(d float64) { c.SampleStability(ProbeWrapDrift, d) }

// SampleStratResidual records one relative difference between the
// prefix/suffix stack's boundary Green's function and a full-chain rebuild
// (the Loh-stratification reference).
func (c *Collector) SampleStratResidual(d float64) { c.SampleStability(ProbeStratResidual, d) }

// SampleUDTCond records one UDT condition estimate, as log10 of
// max|D|/min|D| of a completed decomposition — the dynamic range the
// graded factorization keeps out of the dense arithmetic.
func (c *Collector) SampleUDTCond(log10Cond float64) { c.SampleStability(ProbeUDTCond, log10Cond) }
