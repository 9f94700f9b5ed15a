// Package autopilot closes the loop from stability telemetry to sweep
// control. After every sweep a Controller reads the sweep's window of
// samples from the run's obs.Collector (wrap drift, stack-vs-rebuild
// stratification residual, log10 UDT condition) and adapts two knobs: the
// cluster size k (the wrapping count, which decides how much error the
// stratified stack must absorb per boundary) and the stability-check
// cadence (how often the expensive stack-vs-rebuild residual is evaluated).
//
// Control law, evaluated once per sweep from the window of samples the
// sweep produced:
//
//   - Any non-finite sample is an emergency: k and the cadence drop to 1
//     and the grow caps freeze there — a blown-up Green's function is not
//     a signal to probe with.
//   - A ceiling breach (condition, drift, or residual above its ceiling)
//     shrinks k to the next smaller divisor of L and halves the
//     cadence interval. The breached values become hard caps: the
//     controller never grows back to a k or a cadence that has already
//     failed. This monotone cap is what makes oscillation impossible — the
//     set of reachable (k, cadence) pairs only ever shrinks.
//   - After patience consecutive stable sweeps (drift and the last
//     residual under their floors) outside a post-change cooldown, the
//     cadence doubles, clamped by its cap. k never grows: it starts at its
//     cap, and every step that lowers k lowers the cap with it.
//
// k is divisor-constrained: every step lands on a divisor of L so the
// cluster partition stays exact. The Controller is a plain state machine:
// EndSweep, the accessors and Restore are called from the sweep goroutine
// between sweeps, and none of them locks.
package autopilot

import (
	"math"

	"questgo/internal/obs"
)

// DriftCeiling is the largest wrap drift a stable chain may reach: past it
// the wrapped Green's functions the Metropolis ratios read have left the
// stratified ones. The controller shrinks k above it; a run without the
// controller fails (core.MaxStableWrapDrift).
const DriftCeiling = 1e-3

// The control law's other constants. The ceilings trigger shrink steps and
// the floors gate grow steps. The condition ceiling (log10) is an overflow
// guard: the graded UDT absorbs condition, so it scales with beta, not k,
// and no condition floor gates growth. A wrap drift of ~1e-5 is the healthy
// level of a well-stabilized beta = 32 chain, so the drift ceiling sits two
// decades above it. k never exceeds the configured k (stratification error
// grows exponentially in the cluster size, so a k that looks to have
// decades of headroom can still be one step from a cliff), and the cadence
// never exceeds max(maxCheckEvery, the initial cadence).
const (
	patience          = 3 // consecutive stable sweeps before a grow step
	cooldown          = 2 // sweeps after any change with no further change
	minK              = 1
	minCheckEvery     = 1
	maxCheckEvery     = 16
	defaultCheckEvery = 4 // the cadence when the config's is 0
	condCeilLog10     = 280
	driftFloor        = 1e-4
	residualCeil      = 1e-9
	residualFloor     = 1e-10
	maxDecisions      = 64 // retained per-change decision log entries
)

// State is the controller's complete mutable state, exported so checkpoints
// can persist it (gob) and resume mid-trajectory: the adapted k and cadence
// plus the hysteresis caps, streak counters and last residual that make the
// next decision reproducible.
type State struct {
	K               int
	CheckEvery      int
	KCap            int
	CheckEveryCap   int
	StableStreak    int
	CooldownLeft    int
	Sweep           int
	Shrinks         int
	Grows           int
	NonFiniteEvents int
	NonFinite       bool
	// LastResidual is the most recent finite strat residual, ResidualSeen
	// whether there was one: the residual is sampled at cadence frequency,
	// so most sweep windows have none and growth gates on the last known
	// reading. A checkpoint written before these fields decodes as no
	// residual seen.
	LastResidual float64
	ResidualSeen bool
}

// Action is EndSweep's verdict: the knob settings the next sweep should run
// with, and whether they changed.
type Action struct {
	K          int
	CheckEvery int
	Changed    bool
	Reason     string
}

// Controller is the feedback controller. Create with New, call EndSweep
// with each sweep's window.
type Controller struct {
	// l is the number of imaginary-time slices (every k divides it); maxK
	// and maxCheck are the run's upper bounds on k and the cadence.
	l, maxK, maxCheck int
	st                State

	initialK          int
	initialCheckEvery int
	decisions         []obs.AutopilotDecision
}

// New builds a controller for a chain of l slices starting at cluster size
// k (a divisor of l, which is also the largest k the controller picks) and
// residual-check cadence checkEvery (0 selects 4).
func New(l, k, checkEvery int) *Controller {
	if checkEvery == 0 {
		checkEvery = defaultCheckEvery
	}
	maxCheck := max(maxCheckEvery, checkEvery)
	return &Controller{
		l: l, maxK: k, maxCheck: maxCheck,
		st: State{
			K:             k,
			CheckEvery:    checkEvery,
			KCap:          k,
			CheckEveryCap: maxCheck,
		},
		initialK:          k,
		initialCheckEvery: checkEvery,
	}
}

// EndSweep evaluates the control law over the window of samples one
// completed sweep produced and returns the settings the next sweep should
// use. Call it exactly once per sweep.
func (c *Controller) EndSweep(w obs.Window) Action {
	c.st.Sweep++
	if w.N[obs.ProbeStratResidual] > 0 {
		c.st.LastResidual, c.st.ResidualSeen = w.Last[obs.ProbeStratResidual], true
	}
	prevK, prevCheck := c.st.K, c.st.CheckEvery

	if w.NonFinite {
		// Emergency: drop to the most conservative admissible settings and
		// freeze the caps there. No recovery path from a NaN sweep.
		c.st.NonFinite = true
		c.st.NonFiniteEvents++
		c.st.K = minK
		c.st.KCap = minK
		c.st.CheckEvery = minCheckEvery
		c.st.CheckEveryCap = minCheckEvery
		c.st.StableStreak = 0
		c.st.CooldownLeft = cooldown
		if c.st.K != prevK || c.st.CheckEvery != prevCheck {
			c.st.Shrinks++
			c.record("non_finite", math.NaN())
			return Action{K: c.st.K, CheckEvery: c.st.CheckEvery, Changed: true, Reason: "non_finite"}
		}
		return Action{K: c.st.K, CheckEvery: c.st.CheckEvery, Reason: "non_finite"}
	}
	if reason, signal := breach(w); reason != "" {
		// Shrink k below the breached value and never allow growth back to
		// it; same for the cadence. Both caps are monotone non-increasing,
		// which is the no-oscillation guarantee.
		c.st.KCap = min(c.st.KCap, largestDivisorBelow(c.l, prevK))
		c.st.K = min(c.st.K, c.st.KCap)
		c.st.CheckEveryCap = min(c.st.CheckEveryCap, max(minCheckEvery, prevCheck-1))
		c.st.CheckEvery = min(c.st.CheckEvery, max(minCheckEvery, prevCheck/2), c.st.CheckEveryCap)
		c.st.StableStreak = 0
		c.st.CooldownLeft = cooldown
		if c.st.K != prevK || c.st.CheckEvery != prevCheck {
			c.st.Shrinks++
			c.record(reason, signal)
			return Action{K: c.st.K, CheckEvery: c.st.CheckEvery, Changed: true, Reason: reason}
		}
		// Already at the floor: nothing left to shrink.
		return Action{K: c.st.K, CheckEvery: c.st.CheckEvery, Reason: reason}
	}

	if c.st.CooldownLeft > 0 {
		c.st.CooldownLeft--
		return Action{K: c.st.K, CheckEvery: c.st.CheckEvery}
	}

	if !c.stable(w) {
		c.st.StableStreak = 0
		return Action{K: c.st.K, CheckEvery: c.st.CheckEvery}
	}
	c.st.StableStreak++
	if c.st.StableStreak < patience {
		return Action{K: c.st.K, CheckEvery: c.st.CheckEvery}
	}

	// Grow: double the cadence, clamped by its cap.
	c.st.CheckEvery = max(prevCheck, min(2*prevCheck, c.maxCheck, c.st.CheckEveryCap))
	c.st.StableStreak = 0
	if c.st.CheckEvery != prevCheck {
		c.st.Grows++
		c.st.CooldownLeft = cooldown
		c.record("stable_grow", c.st.LastResidual)
		return Action{K: c.st.K, CheckEvery: c.st.CheckEvery, Changed: true, Reason: "stable_grow"}
	}
	return Action{K: c.st.K, CheckEvery: c.st.CheckEvery}
}

// breach returns the first breached ceiling in severity order (residual,
// condition, drift) and the window's value behind it, or "" if none.
func breach(w obs.Window) (string, float64) {
	for _, b := range [...]struct {
		p      obs.StabilityProbe
		ceil   float64
		reason string
	}{
		{obs.ProbeStratResidual, residualCeil, "residual_ceiling"},
		{obs.ProbeUDTCond, condCeilLog10, "cond_ceiling"},
		{obs.ProbeWrapDrift, DriftCeiling, "drift_ceiling"},
	} {
		if w.N[b.p] > 0 && w.Max[b.p] > b.ceil {
			return b.reason, w.Max[b.p]
		}
	}
	return "", 0
}

// stable reports whether the sweep window qualifies toward the growth
// streak: at least one sample arrived, the sweep's drift is under its
// floor, and the last known residual (sampled sparsely, at cadence
// frequency) is under the residual floor.
func (c *Controller) stable(w obs.Window) bool {
	var total int64
	for _, n := range w.N {
		total += n
	}
	if total == 0 {
		return false
	}
	if w.N[obs.ProbeWrapDrift] > 0 && w.Max[obs.ProbeWrapDrift] > driftFloor {
		return false
	}
	return !c.st.ResidualSeen || c.st.LastResidual <= residualFloor
}

// record appends to the capped decision log.
func (c *Controller) record(reason string, signal float64) {
	if len(c.decisions) >= maxDecisions {
		return
	}
	if math.IsNaN(signal) || math.IsInf(signal, 0) {
		signal = 0 // the JSON document must stay marshalable
	}
	c.decisions = append(c.decisions, obs.AutopilotDecision{
		Sweep:      c.st.Sweep,
		K:          c.st.K,
		CheckEvery: c.st.CheckEvery,
		Reason:     reason,
		Signal:     signal,
	})
}

// K returns the current cluster size.
func (c *Controller) K() int { return c.st.K }

// CheckEvery returns the current stability-check cadence.
func (c *Controller) CheckEvery() int { return c.st.CheckEvery }

// State snapshots the controller state for checkpointing.
func (c *Controller) State() State { return c.st }

// Restore overwrites the controller state from a checkpoint, clamping k to
// a divisor of L in [1, the configured k] and the cadence and both caps to
// their bounds, so a hand-edited checkpoint can neither desync the cluster
// partition nor run past the limits a fresh controller keeps.
func (c *Controller) Restore(s State) {
	s.K = largestDivisorAtMost(c.l, clamp(s.K, minK, c.maxK))
	s.KCap = clamp(s.KCap, minK, c.maxK)
	s.CheckEvery = clamp(s.CheckEvery, minCheckEvery, c.maxCheck)
	s.CheckEveryCap = clamp(s.CheckEveryCap, minCheckEvery, c.maxCheck)
	c.st = s
	// The resumed run starts from the restored knobs, so the trajectory
	// document reports them as its initial point.
	c.initialK = s.K
	c.initialCheckEvery = s.CheckEvery
}

// MetricsDoc renders the controller's trajectory for the metrics document.
func (c *Controller) MetricsDoc() *obs.AutopilotMetrics {
	m := &obs.AutopilotMetrics{
		Enabled:           true,
		InitialK:          c.initialK,
		FinalK:            c.st.K,
		InitialCheckEvery: c.initialCheckEvery,
		FinalCheckEvery:   c.st.CheckEvery,
		Shrinks:           c.st.Shrinks,
		Grows:             c.st.Grows,
		KCap:              c.st.KCap,
		NonFiniteEvents:   c.st.NonFiniteEvents,
		NonFinite:         c.st.NonFinite,
	}
	m.Decisions = append(m.Decisions, c.decisions...)
	return m
}

// largestDivisorBelow returns the largest divisor of L that is < k, or
// minK if k is already minimal: the shrink step.
func largestDivisorBelow(L, k int) int {
	for d := k - 1; d > minK; d-- {
		if L%d == 0 {
			return d
		}
	}
	return minK
}

// largestDivisorAtMost returns the largest divisor of L that is <= k, or
// minK if there is none: Restore's snap of a checkpointed k.
func largestDivisorAtMost(L, k int) int {
	for d := min(k, L); d > minK; d-- {
		if L%d == 0 {
			return d
		}
	}
	return minK
}

// clamp returns v limited to [lo, hi].
func clamp(v, lo, hi int) int { return max(lo, min(v, hi)) }
