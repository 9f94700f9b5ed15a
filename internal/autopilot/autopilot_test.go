package autopilot

import (
	"encoding/json"
	"math"
	"testing"

	"questgo/internal/obs"
)

// newTest returns a controller over L=40 that may grow to k=20, restored
// to k=10 and cadence 2 so both knobs have room to grow.
func newTest(t *testing.T) *Controller {
	t.Helper()
	c := New(40, 20, 2)
	c.Restore(State{K: 10, CheckEvery: 2, KCap: 20, CheckEveryCap: maxCheckEvery})
	return c
}

// stableSweeps feeds n fully-stable sweep windows and returns the last
// verdict.
func stableSweeps(c *Controller, n int) Action {
	var a Action
	for range n {
		a = stableSweep(c)
	}
	return a
}

// stableSweep feeds one fully-stable sweep window and evaluates it.
func stableSweep(c *Controller) Action {
	c.ObserveStability(obs.ProbeWrapDrift, 1e-12)
	c.ObserveStability(obs.ProbeStratResidual, 1e-14)
	c.ObserveStability(obs.ProbeUDTCond, 3)
	return c.EndSweep()
}

// TestDefaults pins what New derives from its arguments and where each
// ceiling sits: a value at the ceiling holds, one just above it shrinks.
func TestDefaults(t *testing.T) {
	st := New(40, 10, 0).State()
	if st.K != 10 || st.KCap != 10 || st.CheckEvery != 4 || st.CheckEveryCap != 16 {
		t.Fatalf("New(40, 10, 0) state %+v, want k 10 (cap 10), cadence 4 (cap 16)", st)
	}
	if st := New(40, 10, 32).State(); st.CheckEveryCap != 32 {
		t.Fatalf("cadence cap %d under an initial cadence of 32, want 32", st.CheckEveryCap)
	}
	for _, tc := range []struct {
		p       obs.StabilityProbe
		ceil    float64
		verdict string
	}{
		{obs.ProbeStratResidual, 1e-9, "residual_ceiling"},
		{obs.ProbeUDTCond, 280, "cond_ceiling"},
		{obs.ProbeWrapDrift, 1e-3, "drift_ceiling"},
	} {
		c := New(40, 10, 2)
		c.ObserveStability(tc.p, tc.ceil)
		if a := c.EndSweep(); a.Changed || a.Reason != "" {
			t.Fatalf("%s at its ceiling %v acted: %+v", tc.verdict, tc.ceil, a)
		}
		c.ObserveStability(tc.p, tc.ceil*1.01)
		if a := c.EndSweep(); !a.Changed || a.Reason != tc.verdict {
			t.Fatalf("%s above its ceiling %v did not shrink: %+v", tc.verdict, tc.ceil, a)
		}
	}
}

func TestShrinkOnResidualBreach(t *testing.T) {
	c := newTest(t)
	c.ObserveStability(obs.ProbeStratResidual, 1e-6) // >> ceiling 1e-9
	a := c.EndSweep()
	if !a.Changed || a.Reason != "residual_ceiling" {
		t.Fatalf("breach not acted on: %+v", a)
	}
	if a.K != 8 { // largest divisor of 40 below 10
		t.Fatalf("shrink k = %d, want 8", a.K)
	}
	if a.CheckEvery != 1 {
		t.Fatalf("shrink cadence = %d, want 1", a.CheckEvery)
	}
	st := c.State()
	if st.KCap != 8 || st.Shrinks != 1 {
		t.Fatalf("state after shrink: %+v", st)
	}
}

func TestGrowthNeedsPatienceAndCooldown(t *testing.T) {
	c := newTest(t)
	// Patience 3: the first two stable sweeps must not grow.
	if a := stableSweeps(c, patience-1); a.Changed {
		t.Fatalf("grew after %d stable sweeps: %+v", patience-1, a)
	}
	a := stableSweep(c)
	if !a.Changed || a.Reason != "stable_grow" {
		t.Fatalf("no growth after patience met: %+v", a)
	}
	if a.K != 20 { // largest divisor of 40 in (10, 20]
		t.Fatalf("grow k = %d, want 20", a.K)
	}
	if a.CheckEvery != 4 {
		t.Fatalf("grow cadence = %d, want 4", a.CheckEvery)
	}
	// Cooldown 2, then patience 3: the next four stable sweeps must not
	// change anything, the fifth grows the cadence again.
	if a := stableSweeps(c, cooldown+patience-1); a.Changed {
		t.Fatalf("changed during cooldown: %+v", a)
	}
	if a := stableSweep(c); !a.Changed || a.CheckEvery != 8 {
		t.Fatalf("no growth after cooldown and patience: %+v", a)
	}
}

// TestNoOscillation drives the controller through the adversarial pattern
// hysteresis exists for: k=20 always breaches, k<=10 is always stable. The
// KCap must pin the controller below the breached k forever instead of
// bouncing 10 <-> 20.
func TestNoOscillation(t *testing.T) {
	c := newTest(t)
	if a := stableSweeps(c, patience); a.K != 20 {
		t.Fatalf("setup grow failed: %+v", a)
	}
	// k=20 breaches.
	c.ObserveStability(obs.ProbeStratResidual, 1e-6)
	a := c.EndSweep()
	if a.K >= 20 {
		t.Fatalf("no shrink after breach: %+v", a)
	}
	// Hundreds of stable sweeps later, k must never reach 20 again.
	maxK := 0
	for i := 0; i < 300; i++ {
		a := stableSweep(c)
		if a.K > maxK {
			maxK = a.K
		}
	}
	if maxK >= 20 {
		t.Fatalf("controller re-grew to breached k = %d", maxK)
	}
	st := c.State()
	if st.KCap >= 20 {
		t.Fatalf("KCap %d not pinned below breached k", st.KCap)
	}
}

func TestDivisorSteps(t *testing.T) {
	cases := []struct{ L, k, want int }{
		{40, 10, 8},
		{40, 8, 5},
		{40, 2, 1},
		{40, 1, 1}, // already minimal: no change
		{48, 12, 8},
		{160, 10, 8},
	}
	for _, tc := range cases {
		if got := largestDivisorBelow(tc.L, tc.k); got != tc.want {
			t.Fatalf("largestDivisorBelow(%d,%d) = %d, want %d", tc.L, tc.k, got, tc.want)
		}
	}
	growCases := []struct{ L, lo, hi, want int }{
		{40, 10, 20, 20},
		{40, 20, 40, 40},
		{40, 8, 16, 10},
		{40, 5, 7, 5}, // no divisor in range: stay
		{160, 8, 16, 16},
	}
	for _, tc := range growCases {
		if got := largestDivisorBetween(tc.L, tc.lo, tc.hi); got != tc.want {
			t.Fatalf("largestDivisorBetween(%d,%d,%d) = %d, want %d", tc.L, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestNonFiniteEmergency(t *testing.T) {
	c := newTest(t)
	c.ObserveStability(obs.ProbeWrapDrift, math.NaN())
	a := c.EndSweep()
	if !a.Changed || a.Reason != "non_finite" {
		t.Fatalf("NaN sample not treated as emergency: %+v", a)
	}
	if a.K != 1 || a.CheckEvery != 1 {
		t.Fatalf("emergency settings k=%d cadence=%d, want 1/1", a.K, a.CheckEvery)
	}
	st := c.State()
	if !st.NonFinite || st.NonFiniteEvents != 1 || st.KCap != 1 {
		t.Fatalf("emergency state: %+v", st)
	}
	// Frozen: stable sweeps can never grow past the emergency cap.
	for i := 0; i < 20; i++ {
		if a := stableSweep(c); a.K != 1 {
			t.Fatalf("grew after non-finite emergency: %+v", a)
		}
	}
	doc := c.MetricsDoc()
	if !doc.NonFinite || doc.NonFiniteEvents != 1 {
		t.Fatalf("metrics doc misses non-finite record: %+v", doc)
	}
	if _, err := json.Marshal(doc); err != nil {
		t.Fatalf("autopilot metrics must marshal: %v", err)
	}
}

func TestStateRoundTrip(t *testing.T) {
	c := newTest(t)
	stableSweeps(c, patience) // grow
	c.ObserveStability(obs.ProbeStratResidual, 1e-6)
	c.EndSweep() // shrink
	st := c.State()

	c2 := newTest(t)
	c2.Restore(st)
	if got := c2.State(); got != st {
		t.Fatalf("state round trip: %+v vs %+v", got, st)
	}
	if c2.K() != st.K || c2.CheckEvery() != st.CheckEvery {
		t.Fatalf("accessors after restore: k=%d cadence=%d", c2.K(), c2.CheckEvery())
	}
}

// TestRestoreClampsBadK: a hand-edited checkpoint resumes inside the bounds
// a fresh controller keeps — k a divisor of L no larger than the configured
// k, the cadence and both caps within [1, max(16, initial cadence)].
func TestRestoreClampsBadK(t *testing.T) {
	for _, tc := range []struct {
		name        string
		l, k, check int
		in, want    State
	}{
		{"k not a divisor", 40, 20, 2,
			State{K: 7, CheckEvery: 2, KCap: 20, CheckEveryCap: 8},
			State{K: 5, CheckEvery: 2, KCap: 20, CheckEveryCap: 8}},
		{"k = L, cadence 1<<30", 12, 6, 0,
			State{K: 12, CheckEvery: 1 << 30, KCap: 12, CheckEveryCap: 1 << 30},
			State{K: 6, CheckEvery: 16, KCap: 6, CheckEveryCap: 16}},
		{"zero state", 12, 6, 0,
			State{},
			State{K: 1, CheckEvery: 1, KCap: 1, CheckEveryCap: 1}},
	} {
		c := New(tc.l, tc.k, tc.check)
		c.Restore(tc.in)
		if got := c.State(); got != tc.want {
			t.Errorf("%s: restored %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestMetricsDocTrajectory(t *testing.T) {
	c := newTest(t)
	stableSweeps(c, patience) // grow 10 -> 20
	doc := c.MetricsDoc()
	if !doc.Enabled || doc.InitialK != 10 || doc.FinalK != 20 || doc.Grows != 1 || doc.Shrinks != 0 {
		t.Fatalf("trajectory doc: %+v", doc)
	}
	if len(doc.Decisions) != 1 || doc.Decisions[0].Reason != "stable_grow" {
		t.Fatalf("decision log: %+v", doc.Decisions)
	}
}

// TestUnstableSweepResetsStreak: a sweep above the growth floor (but below
// the ceiling) must reset patience, not accumulate toward growth.
func TestUnstableSweepResetsStreak(t *testing.T) {
	c := newTest(t)
	stableSweeps(c, patience-1)
	c.ObserveStability(obs.ProbeWrapDrift, 5e-4) // above floor 1e-4, below ceil 1e-3
	if a := c.EndSweep(); a.Changed {
		t.Fatalf("mid-band sweep changed knobs: %+v", a)
	}
	// Streak was reset: patience-1 more stable sweeps must not be enough.
	if a := stableSweeps(c, patience-1); a.Changed {
		t.Fatalf("grew without full patience after reset: %+v", a)
	}
	if a := stableSweep(c); !a.Changed {
		t.Fatalf("expected growth after full patience: %+v", a)
	}
}
