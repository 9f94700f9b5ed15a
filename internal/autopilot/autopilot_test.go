package autopilot

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"

	"questgo/internal/obs"
)

// newTest returns a controller over L = 40 at k = 10 and cadence 2, so a
// shrink has divisors below it and the cadence room to grow.
func newTest(t *testing.T) *Controller {
	t.Helper()
	return New(40, 10, 2)
}

// sample is one stability reading.
type sample struct {
	p obs.StabilityProbe
	v float64
}

// sweep records the samples in a collector, as a sweep does, and evaluates
// the window they make.
func sweep(c *Controller, samples ...sample) Action {
	col := obs.New()
	for _, s := range samples {
		col.SampleStability(s.p, s.v)
	}
	return c.EndSweep(col.TakeWindow())
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
	return sweep(c, sample{obs.ProbeWrapDrift, 1e-12}, sample{obs.ProbeStratResidual, 1e-14}, sample{obs.ProbeUDTCond, 3})
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
		if a := sweep(c, sample{tc.p, tc.ceil}); a.Changed || a.Reason != "" {
			t.Fatalf("%s at its ceiling %v acted: %+v", tc.verdict, tc.ceil, a)
		}
		if a := sweep(c, sample{tc.p, tc.ceil * 1.01}); !a.Changed || a.Reason != tc.verdict {
			t.Fatalf("%s above its ceiling %v did not shrink: %+v", tc.verdict, tc.ceil, a)
		}
	}
}

func TestShrinkOnResidualBreach(t *testing.T) {
	c := newTest(t)
	a := sweep(c, sample{obs.ProbeStratResidual, 1e-6}) // >> ceiling 1e-9
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

// TestGrowthNeedsPatienceAndCooldown: only the cadence grows, and only
// after patience stable sweeps outside the cooldown of the last change.
func TestGrowthNeedsPatienceAndCooldown(t *testing.T) {
	c := newTest(t)
	// Patience 3: the first two stable sweeps must not grow.
	if a := stableSweeps(c, patience-1); a.Changed {
		t.Fatalf("grew after %d stable sweeps: %+v", patience-1, a)
	}
	a := stableSweep(c)
	if !a.Changed || a.Reason != "stable_grow" || a.K != 10 || a.CheckEvery != 4 {
		t.Fatalf("after patience: %+v, want the cadence grown 2 -> 4 at k 10", a)
	}
	// Cooldown 2, then patience 3: the next four stable sweeps must not
	// change anything, the fifth grows the cadence again.
	if a := stableSweeps(c, cooldown+patience-1); a.Changed {
		t.Fatalf("changed during cooldown: %+v", a)
	}
	if a := stableSweep(c); !a.Changed || a.K != 10 || a.CheckEvery != 8 {
		t.Fatalf("after cooldown and patience: %+v, want the cadence grown 4 -> 8 at k 10", a)
	}
}

// TestNoOscillation: a breach caps k and the cadence below the values that
// breached, so hundreds of stable sweeps later neither is back.
func TestNoOscillation(t *testing.T) {
	c := newTest(t)
	if a := stableSweeps(c, patience); a.CheckEvery != 4 {
		t.Fatalf("setup grow failed: %+v", a)
	}
	// k = 10 at cadence 4 breaches: k 8, cadence 2, caps 8 and 3.
	if a := sweep(c, sample{obs.ProbeStratResidual, 1e-6}); a.K != 8 || a.CheckEvery != 2 {
		t.Fatalf("breach: %+v, want k 8 and cadence 2", a)
	}
	maxK, maxCheck := 0, 0
	for range 300 {
		a := stableSweep(c)
		maxK, maxCheck = max(maxK, a.K), max(maxCheck, a.CheckEvery)
	}
	if maxK != 8 || maxCheck != 3 {
		t.Fatalf("after the breach k reached %d and the cadence %d, want 8 and 3", maxK, maxCheck)
	}
	if st := c.State(); st.KCap != 8 || st.CheckEveryCap != 3 {
		t.Fatalf("caps %d and %d, want 8 and 3", st.KCap, st.CheckEveryCap)
	}
}

// TestKAtItsCap: from New, every window leaves K == KCap — a shrink lowers
// both, the emergency sets both to 1, a restore of State copies both — so k
// has no room to grow and only the cadence does. Random windows drive every
// k dividing L = 40, 48, 160 and 200 for 60 sweeps, with a restore of the
// state into a fresh controller at sweep 30.
func TestKAtItsCap(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	val := func(lo, hi float64) float64 { return math.Pow(10, lo+(hi-lo)*r.Float64()) }
	for _, l := range []int{40, 48, 160, 200} {
		for k := 1; k <= l; k++ {
			if l%k != 0 {
				continue
			}
			c := New(l, k, []int{0, 1, 2, 4}[r.IntN(4)])
			for i := range 60 {
				var ss []sample
				if r.IntN(2) == 0 {
					ss = append(ss, sample{obs.ProbeWrapDrift, val(-14, -2.5)})
				}
				if r.IntN(3) == 0 {
					ss = append(ss, sample{obs.ProbeStratResidual, val(-16, -8.5)})
				}
				if r.IntN(4) == 0 {
					ss = append(ss, sample{obs.ProbeUDTCond, val(0, 2.5)})
				}
				if r.IntN(100) == 0 {
					ss = append(ss, sample{obs.ProbeWrapDrift, math.NaN()})
				}
				a := sweep(c, ss...)
				if st := c.State(); st.K != st.KCap || a.K != st.K || l%a.K != 0 {
					t.Fatalf("L %d, k %d, sweep %d: action %+v, state %+v: want k a divisor of L at its cap", l, k, i, a, st)
				}
				if i == 30 {
					st := c.State()
					c = New(l, k, 0)
					c.Restore(st)
				}
			}
		}
	}
}

// TestRestoredLastResidual: the last residual is part of State, so a
// controller restored between a residual and the windows without one
// decides as the original does. A State without it forgets the residual of
// 5e-10 (above the floor), and the restored controller grows the cadence on
// the fourth window while the original holds.
func TestRestoredLastResidual(t *testing.T) {
	c := New(40, 10, 4)
	if a := sweep(c, sample{obs.ProbeStratResidual, 1e-6}); a.K != 8 || a.CheckEvery != 2 {
		t.Fatalf("shrink: %+v, want k 8 and cadence 2", a)
	}
	sweep(c, sample{obs.ProbeStratResidual, 5e-10})
	r := New(40, 10, 4)
	r.Restore(c.State())
	for i := range 10 {
		w := sample{obs.ProbeWrapDrift, 1e-12}
		if a, b := sweep(c, w), sweep(r, w); a != b {
			t.Fatalf("window %d: original %+v, restored %+v", i+1, a, b)
		}
	}
	if c.State() != r.State() {
		t.Fatalf("states part: original %+v, restored %+v", c.State(), r.State())
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
	snapCases := []struct{ L, k, want int }{
		{40, 20, 20},
		{40, 40, 40},
		{40, 16, 10},
		{40, 7, 5},
		{160, 16, 16},
		{12, 100, 12}, // k past L: L itself
		{12, 0, 1},
	}
	for _, tc := range snapCases {
		if got := largestDivisorAtMost(tc.L, tc.k); got != tc.want {
			t.Fatalf("largestDivisorAtMost(%d,%d) = %d, want %d", tc.L, tc.k, got, tc.want)
		}
	}
}

func TestNonFiniteEmergency(t *testing.T) {
	c := newTest(t)
	a := sweep(c, sample{obs.ProbeWrapDrift, math.NaN()})
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
	stableSweeps(c, patience)                      // grow
	sweep(c, sample{obs.ProbeStratResidual, 1e-6}) // shrink
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
	stableSweeps(c, patience) // grow the cadence 2 -> 4
	doc := c.MetricsDoc()
	if !doc.Enabled || doc.InitialK != 10 || doc.FinalK != 10 || doc.InitialCheckEvery != 2 ||
		doc.FinalCheckEvery != 4 || doc.Grows != 1 || doc.Shrinks != 0 {
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
	if a := sweep(c, sample{obs.ProbeWrapDrift, 5e-4}); a.Changed { // above floor 1e-4, below ceil 1e-3
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
