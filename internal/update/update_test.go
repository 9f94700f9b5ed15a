package update

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"questgo/internal/check"
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/obs"
	"questgo/internal/rng"
)

func setup(t *testing.T, nx, ny int, u, beta float64, l int, seed uint64) (*hubbard.Propagator, *hubbard.Field) {
	t.Helper()
	lat := lattice.NewSquare(nx, ny, 1.0)
	m, err := hubbard.NewModel(lat, u, 0, beta, l)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(m)
	f := hubbard.NewRandomField(l, m.N(), rng.New(seed))
	return p, f
}

// green is greens.Green, Algorithm 3, for a chain the test knows to be
// regular.
func green(t *testing.T, bs []*mat.Dense) *mat.Dense {
	t.Helper()
	g, err := greens.Green(bs, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// detM computes log|det(I + B_L...B_1)| and its sign directly.
func detM(p *hubbard.Propagator, f *hubbard.Field, sigma hubbard.Spin) (float64, float64) {
	n := p.Model.N()
	bs := make([]*mat.Dense, p.Model.L)
	for i := range bs {
		bs[i] = p.BMatrix(sigma, f, i)
	}
	prod := bs[0].Clone()
	tmp := mat.New(n, n)
	for i := 1; i < len(bs); i++ {
		mulInto(tmp, bs[i], prod)
		prod, tmp = tmp, prod
	}
	for i := 0; i < n; i++ {
		prod.Set(i, i, prod.At(i, i)+1)
	}
	lu, err := lapack.LUFactor(prod)
	if err != nil {
		return math.Inf(-1), 0
	}
	return lu.LogDet()
}

func mulInto(dst, a, b *mat.Dense) {
	for j := 0; j < dst.Cols; j++ {
		col := dst.Col(j)
		for i := range col {
			col[i] = 0
		}
		for k := 0; k < a.Cols; k++ {
			f := b.At(k, j)
			ac := a.Col(k)
			for i := range col {
				col[i] += f * ac[i]
			}
		}
	}
}

// TestMetropolisRatioMatchesDeterminants verifies the rank-1 ratio formula
// d = 1 + alpha*(1 - G_ii) against brute-force determinants for flips at
// the first slice.
func TestMetropolisRatioMatchesDeterminants(t *testing.T) {
	p, f := setup(t, 2, 2, 4, 1, 4, 5)
	// G for updating slice 0 is (I + B_0 B_{L-1} ... B_1)^{-1}: wrap G_base.
	bs := make([]*mat.Dense, p.Model.L)
	for i := range bs {
		bs[i] = p.BMatrix(hubbard.Up, f, i)
	}
	g := green(t, bs)
	w := greens.NewWrapper(p)
	w.Wrap(g, f, hubbard.Up, 0)

	logBefore, signBefore := detM(p, f, hubbard.Up)
	for i := 0; i < p.Model.N(); i++ {
		h := f.H[0][i]
		alpha := p.Alpha(hubbard.Up, h)
		d := 1 + alpha*(1-g.At(i, i))

		f.Flip(0, i)
		logAfter, signAfter := detM(p, f, hubbard.Up)
		f.Flip(0, i) // restore

		want := math.Exp(logAfter-logBefore) * signAfter * signBefore
		if math.Abs(d-want) > 1e-8*math.Abs(want) {
			t.Fatalf("site %d: ratio formula %g, determinant ratio %g", i, d, want)
		}
	}
}

// TestSweepKeepsGreenConsistent runs full sweeps and verifies that the
// incrementally maintained Green's function matches a from-scratch
// stratified evaluation of the final field.
func TestSweepKeepsGreenConsistent(t *testing.T) {
	p, f := setup(t, 3, 3, 4, 2, 8, 7)
	sw := NewSweeper(p, f, rng.New(99), Options{ClusterK: 4, Delay: 3, PrePivot: true})
	for s := 0; s < 3; s++ {
		sw.Sweep()
	}
	// After Sweep, G corresponds to the full chain of the *current* field.
	bs := make([]*mat.Dense, p.Model.L)
	for i := range bs {
		bs[i] = p.BMatrix(hubbard.Up, f, i)
	}
	fresh := green(t, bs)
	if d := mat.RelDiff(sw.GreenUp(), fresh); d > 1e-8 {
		t.Fatalf("spin-up G drifted from fresh evaluation: %g", d)
	}
	for i := range bs {
		bs[i] = p.BMatrix(hubbard.Down, f, i)
	}
	fresh = green(t, bs)
	if d := mat.RelDiff(sw.GreenDn(), fresh); d > 1e-8 {
		t.Fatalf("spin-down G drifted from fresh evaluation: %g", d)
	}
}

// TestDelayedEqualsPlain checks that the delayed update (nd > 1) and the
// effectively-undelayed case (nd = 1) produce identical trajectories: the
// same accept/reject decisions and the same final field.
func TestDelayedEqualsPlain(t *testing.T) {
	p, f1 := setup(t, 3, 3, 4, 2, 8, 11)
	f2 := f1.Clone()
	sw1 := NewSweeper(p, f1, rng.New(42), Options{ClusterK: 4, Delay: 1, PrePivot: true})
	sw2 := NewSweeper(p, f2, rng.New(42), Options{ClusterK: 4, Delay: 16, PrePivot: true})
	for s := 0; s < 2; s++ {
		sw1.Sweep()
		sw2.Sweep()
	}
	if sw1.AcceptanceRate() != sw2.AcceptanceRate() {
		t.Fatalf("acceptance differs: %v vs %v", sw1.AcceptanceRate(), sw2.AcceptanceRate())
	}
	for l := 0; l < f1.L; l++ {
		for i := 0; i < f1.N; i++ {
			if f1.H[l][i] != f2.H[l][i] {
				t.Fatalf("fields diverged at (%d,%d)", l, i)
			}
		}
	}
	if d := mat.RelDiff(sw1.GreenUp(), sw2.GreenUp()); d > 1e-8 {
		t.Fatalf("delayed vs plain G differ: %g", d)
	}
}

// TestQRPandPrePivotSameTrajectory: with the same RNG stream, Algorithm 2
// and Algorithm 3 refreshes must give the same Monte Carlo decisions (their
// Green's functions agree to ~1e-12, far below any acceptance threshold
// sensitivity for generic uniforms).
func TestQRPandPrePivotSameTrajectory(t *testing.T) {
	p, f1 := setup(t, 3, 3, 6, 3, 12, 13)
	f2 := f1.Clone()
	sw1 := NewSweeper(p, f1, rng.New(7), Options{ClusterK: 4, PrePivot: false})
	sw2 := NewSweeper(p, f2, rng.New(7), Options{ClusterK: 4, PrePivot: true})
	for s := 0; s < 2; s++ {
		sw1.Sweep()
		sw2.Sweep()
	}
	for l := 0; l < f1.L; l++ {
		for i := 0; i < f1.N; i++ {
			if f1.H[l][i] != f2.H[l][i] {
				t.Fatalf("fields diverged at (%d,%d)", l, i)
			}
		}
	}
}

func TestSignStaysPositiveAtHalfFilling(t *testing.T) {
	// Particle-hole symmetry at mu = 0 guarantees a positive weight.
	p, f := setup(t, 2, 2, 6, 2, 8, 17)
	sw := NewSweeper(p, f, rng.New(3), Options{ClusterK: 4})
	for s := 0; s < 5; s++ {
		sw.Sweep()
		if sw.Sign() != 1 {
			t.Fatalf("sign became %v at half filling", sw.Sign())
		}
	}
}

func TestAcceptanceRateReasonable(t *testing.T) {
	p, f := setup(t, 3, 3, 4, 2, 8, 19)
	sw := NewSweeper(p, f, rng.New(21), Options{ClusterK: 4})
	for s := 0; s < 5; s++ {
		sw.Sweep()
	}
	ar := sw.AcceptanceRate()
	if ar <= 0.01 || ar >= 0.99 {
		t.Fatalf("acceptance rate %v implausible", ar)
	}
}

func TestWrapDriftSmall(t *testing.T) {
	p, f := setup(t, 3, 3, 4, 2, 20, 23)
	col := obs.New()
	sw := NewSweeper(p, f, rng.New(5), Options{ClusterK: 10, Obs: col, StabilityEvery: 2})
	col.Reset()
	for s := 0; s < 3; s++ {
		sw.Sweep()
	}
	if sw.MaxWrapDrift() > 1e-6 {
		t.Fatalf("wrapped G drift %g exceeds tolerance (wrapping limit l=10 should hold)", sw.MaxWrapDrift())
	}
	if sw.MaxWrapDrift() == 0 {
		t.Fatal("drift should be nonzero after real sweeps")
	}
	// All sweep phases (wrap/flush/cluster/refresh) must have accumulated
	// time; the measure phase belongs to core, not the sweeper.
	pd := col.PhaseDurations()
	for p := obs.PhaseWrap; p < obs.PhaseMeasure; p++ {
		if pd[p] == 0 {
			t.Fatalf("phase %s never timed", p)
		}
	}
	// The stability telemetry must be populated: drift samples from every
	// refresh, residual samples every StabilityEvery boundaries, condition
	// estimates from the stack evaluations.
	m := col.Metrics()
	if m.Stability.WrapDriftSamples == 0 {
		t.Fatal("no wrap-drift samples recorded")
	}
	if m.Stability.StratResidualSamples == 0 {
		t.Fatal("no stratification-residual samples recorded")
	}
	if m.Stability.MaxStratResidual > 1e-9 {
		t.Fatalf("stack residual %g vs full rebuild too large", m.Stability.MaxStratResidual)
	}
	if m.Stability.UDTCondSamples == 0 {
		t.Fatal("no UDT condition samples recorded")
	}
	if m.Ops.Wraps == 0 || m.Ops.UDTSteps == 0 || m.Ops.Sweeps != 3 {
		t.Fatalf("op counters not populated: %+v", m.Ops)
	}
}

func TestClusterKAdjusts(t *testing.T) {
	p, f := setup(t, 2, 2, 4, 2, 9, 29) // L = 9; requested K=10 must fall to 9 or 3
	sw := NewSweeper(p, f, rng.New(1), Options{ClusterK: 10})
	if 9%sw.ClusterK() != 0 {
		t.Fatalf("ClusterK %d does not divide L=9", sw.ClusterK())
	}
	// A k far above L (a decoded checkpoint can carry any int) snaps to L
	// at once instead of counting down to it.
	if k := SnapClusterK(9, math.MaxInt); k != 9 {
		t.Fatalf("SnapClusterK(9, MaxInt) = %d, want 9", k)
	}
}

// TestSetClusterKMidRun resizes k between sweeps — the autopilot's actuator
// path — and checks (a) the stack refresh after each resize agrees with the
// full rebuild at every boundary (the cadence-1 residual check), (b) the
// Green's functions stay consistent with a fresh full-chain evaluation
// after further sweeps at the new k, and (c) k is snapped to a divisor of L.
func TestSetClusterKMidRun(t *testing.T) {
	p, f1 := setup(t, 3, 3, 4, 2, 12, 43)
	col := obs.New()
	sw1 := NewSweeper(p, f1, rng.New(17), Options{ClusterK: 4, PrePivot: true, Obs: col, StabilityEvery: 1})
	for s := 0; s < 2; s++ {
		sw1.Sweep()
	}
	for _, k := range []int{2, 6, 3} {
		if got := sw1.SetClusterK(k); got != k {
			t.Fatalf("SetClusterK(%d) = %d on L=12", k, got)
		}
		col.Reset()
		sw1.Sweep()
		st := col.Metrics().Stability
		if st.StratResidualSamples != int64(12/k) || st.NonFiniteSeen || !(st.MaxStratResidual <= 1e-9) {
			t.Fatalf("k=%d: %d residual samples (want %d), max %g (want <= 1e-9), non-finite %v",
				k, st.StratResidualSamples, 12/k, st.MaxStratResidual, st.NonFiniteSeen)
		}
	}
	// Final consistency against a from-scratch evaluation of the chain.
	bs := make([]*mat.Dense, p.Model.L)
	for i := range bs {
		bs[i] = p.BMatrix(hubbard.Up, f1, i)
	}
	fresh := green(t, bs)
	if d := mat.RelDiff(sw1.GreenUp(), fresh); d > 1e-8 {
		t.Fatalf("resized sweeper G drifted from fresh evaluation: %g", d)
	}
	// Snap-to-divisor: 5 does not divide 12, nearest divisor below is 4.
	if got := sw1.SetClusterK(5); got != 4 {
		t.Fatalf("SetClusterK(5) = %d on L=12, want 4", got)
	}
	if sw1.ClusterK() != 4 {
		t.Fatalf("ClusterK() = %d after snap, want 4", sw1.ClusterK())
	}
}

// TestSetStabilityEveryMidRun tightens the residual-check cadence mid-run
// and checks the sample count responds while the trajectory is untouched.
func TestSetStabilityEveryMidRun(t *testing.T) {
	p, f1 := setup(t, 3, 3, 4, 2, 12, 47)
	f2 := f1.Clone()
	col := obs.New()
	sw1 := NewSweeper(p, f1, rng.New(9), Options{ClusterK: 4, Obs: col, StabilityEvery: 3})
	sw2 := NewSweeper(p, f2, rng.New(9), Options{ClusterK: 4})
	col.Reset()
	sw1.Sweep()
	sw2.Sweep()
	before := col.Metrics().Stability.StratResidualSamples
	if before != 1 {
		t.Fatalf("cadence 3 over 3 boundaries: %d residual samples, want 1", before)
	}
	sw1.SetStabilityEvery(1)
	if sw1.opts.StabilityEvery != 1 {
		t.Fatalf("StabilityEvery = %d, want 1", sw1.opts.StabilityEvery)
	}
	sw1.Sweep()
	sw2.Sweep()
	after := col.Metrics().Stability.StratResidualSamples
	if after != before+3 {
		t.Fatalf("cadence 1 over 3 boundaries added %d samples, want 3", after-before)
	}
	// The cadence is diagnostic-only: the instrumented and bare sweepers
	// must agree bitwise on the field trajectory.
	for l := 0; l < f1.L; l++ {
		for i := 0; i < f1.N; i++ {
			if f1.H[l][i] != f2.H[l][i] {
				t.Fatalf("cadence change perturbed trajectory at (%d,%d)", l, i)
			}
		}
	}
}

// TestBackendIsThreeKernels pins the engine seam: a Backend is the three
// level-3 kernels and nothing else — no cluster storage, no chain order, no
// retarget call — so the next engine implements exactly these.
func TestBackendIsThreeKernels(t *testing.T) {
	typ := reflect.TypeOf((*Backend)(nil)).Elem()
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if want := []string{"Cluster", "Flush", "Wrap"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("update.Backend methods %v, want exactly %v", got, want)
	}
}

// singularDown is the host backend whose spin-down blocks become -I once on
// is set: with one cluster (k = L) the down sector's I + B is then singular.
type singularDown struct {
	Backend
	on *bool
}

func (b singularDown) Cluster(dst *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, base, k int) {
	if *b.on && sigma == hubbard.Down {
		dst.SetIdentity()
		dst.Scale(-1)
		return
	}
	b.Backend.Cluster(dst, f, sigma, base, k)
}

// TestSingularRefreshSetsErr: a stratified refresh whose final solve is
// singular reaches Sweeper.Err as lapack.ErrSingular, from the constructor's
// refresh and from a sweep's boundary. The singular sector is the down one,
// which the wrap drift never samples: the drift stays finite. Under qmcdebug
// the sanitizer stops the non-finite G first (the spins run serially, so
// the panic reaches this goroutine).
func TestSingularRefreshSetsErr(t *testing.T) {
	for _, atStart := range []bool{true, false} {
		p, f := setup(t, 2, 2, 4, 1, 4, 3)
		on := atStart
		mk := func(p *hubbard.Propagator, sigma hubbard.Spin, nd int) Backend {
			return singularDown{newHost(p, sigma, nd), &on}
		}
		opts := Options{ClusterK: 4, SerialSpins: true}
		if check.Enabled {
			msg := panicMessage(func() {
				sw := NewSweeperOn(p, f, rng.New(1), opts, mk)
				on = true
				sw.Sweep()
			})
			if !strings.Contains(msg, "greens.") {
				t.Fatalf("atStart=%v under qmcdebug: panic %q, want the sanitizer's", atStart, msg)
			}
			continue
		}
		sw := NewSweeperOn(p, f, rng.New(1), opts, mk)
		if !atStart {
			if err := sw.Err(); err != nil {
				t.Fatalf("regular chain: Err() = %v", err)
			}
			on = true
			sw.Sweep()
		}
		if err := sw.Err(); !errors.Is(err, lapack.ErrSingular) {
			t.Fatalf("atStart=%v: Err() = %v, want lapack.ErrSingular", atStart, err)
		}
		if d := sw.MaxWrapDrift(); math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("atStart=%v: wrap drift %g; the up sector is regular", atStart, d)
		}
	}
}

// nanWrapUp is the host backend that, once on is set, writes one NaN into
// the up sector's wrapped G at its next wrap and turns itself off.
type nanWrapUp struct {
	Backend
	on *bool
}

func (b nanWrapUp) Wrap(g *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, s int) {
	b.Backend.Wrap(g, f, sigma, s)
	if *b.on && sigma == hubbard.Up {
		g.Data[0], *b.on = math.NaN(), false
	}
}

// TestNaNWrapDriftSticks: a NaN in the wrapped G makes that boundary's
// drift NaN, and the lifetime maximum keeps it through the regular
// boundaries after, so a caller reading MaxWrapDrift sees the blow-up (a
// plain d > max never takes a NaN). The collector counts the NaN sample.
// Under qmcdebug a sanitizer stops the chain first: the NaN ratio accepts
// its flip, and the flush's GEMM reads the NaN before the boundary does.
func TestNaNWrapDriftSticks(t *testing.T) {
	p, f := setup(t, 2, 2, 4, 1, 8, 3)
	on := false
	mk := func(p *hubbard.Propagator, sigma hubbard.Spin, nd int) Backend {
		return nanWrapUp{newHost(p, sigma, nd), &on}
	}
	col := obs.New()
	sw := NewSweeperOn(p, f, rng.New(1), Options{ClusterK: 4, SerialSpins: true, Obs: col}, mk)
	sw.Sweep()
	if d := sw.MaxWrapDrift(); math.IsNaN(d) || d > 1e-9 {
		t.Fatalf("regular sweep: drift %g", d)
	}
	on = true
	if check.Enabled {
		if msg := panicMessage(sw.Sweep); !strings.Contains(msg, "blas.Gemm produced non-finite") {
			t.Fatalf("under qmcdebug: panic %q, want the GEMM sanitizer's", msg)
		}
		return
	}
	sw.Sweep()
	sw.Sweep()
	if d := sw.MaxWrapDrift(); !math.IsNaN(d) {
		t.Fatalf("MaxWrapDrift() = %g after a NaN wrap, want NaN", d)
	}
	if n := col.Metrics().Stability.NonFiniteWrapDrift; n != 1 {
		t.Fatalf("collector counted %d non-finite drift samples, want 1", n)
	}
}

// panicMessage runs f and returns what it panicked with, "" if it returned.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
