// Package update owns the Markov chain of the DQMC algorithm (Algorithm 1 of
// the paper): one Sweeper carries the Metropolis loop, the host-side delayed
// rank-1 accumulators, the fermion sign, the accept/propose counters, the
// refresh scheduling and the drift/residual probes — everything that is
// serial and latency-bound. The level-3 work of a sweep (wrapping, cluster
// products and the blocked flush G += U*W^T that turns nd rank-1 updates
// into one GEMM) goes through a per-spin Backend of three kernels, so the
// same chain runs on the host kernels (NewSweeper) or on simulated
// accelerators (NewSweeperOn with gpu.NewBackend) — the paper's hybrid split
// of Section VI — and produces the same chain bit for bit: cluster storage,
// chain order and stratification stay with the Sweeper on every backend.
// (Between two refreshes the wrapped G carries each backend's own rounding
// of V G V^-1, so the wrap-drift diagnostic is backend-specific.)
//
// Four optimizations sit on top of the paper's Algorithm 1:
//
//   - The per-boundary stratified refresh goes through greens.StratStack
//     over the spin's greens.ClusterSet, which caches suffix UDT
//     decompositions (built once per sweep) and extends a prefix UDT by one
//     cluster per boundary, so each refresh costs O(1) cluster-UDT steps
//     instead of re-running the whole L/k-cluster chain. Options.NoStack
//     restores the full-rebuild reference: greens.GreenInto over the set's
//     chain.
//   - The heavy per-spin phases — wrapping, delayed-update flushes,
//     cluster recomputation, stratified refreshes — are independent between
//     the up and down sectors and fork onto the parallel pool
//     (parallel.Pair), fused so that a sweep forks once per slice and once
//     more per cluster boundary (L + NC forks) through three closures per
//     sector: stepFn (flush slice s, wrap into s+1), boundaryFn (flush,
//     recompute the cluster, advance the stack, refresh) and flushFn (a
//     full delay block in mid-slice). Only the per-site Metropolis loop,
//     which needs both spins' effective diagonal, and the boundary hook
//     stay synchronous. Options.SerialSpins runs the same closures
//     serially. Each spin owns its backend, so no scratch is shared across
//     the fork, and the stack's stability samples reach the collector after
//     the join in a fixed order, so the metrics repeat bit for bit too.
//   - The Metropolis loop reads G, U and W through their storage, and an
//     accepted flip builds each side of its rank-1 pair with one
//     blas.AxpyCols: G's column or row, the pending updates and the scaling
//     in one register-blocked pass, bitwise the per-column blas.Axpy calls
//     it replaced.
//   - The sampled stack-vs-rebuild residual check (Options.StabilityEvery)
//     runs beside the sweep, not inside it: the boundary's refresh snapshots
//     what the check reads, Sweep hands the whole-chain rebuild to an idle
//     pool worker (parallel.Start) and joins it up to two boundaries later,
//     delivering the sample on the chain's goroutine. With no idle core the
//     check runs inline.
package update

import (
	"time"

	"questgo/internal/blas"
	"questgo/internal/check"
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/mat"
	"questgo/internal/obs"
	"questgo/internal/parallel"
	"questgo/internal/rng"
)

// Backend is one spin sector's level-3 engine: the three O(N^3) kernels of
// a sweep and nothing else. It stores no clusters and knows no chain order
// or cluster size — the Sweeper's greens.ClusterSet owns those and calls
// Cluster as its block builder. Methods are called from one goroutine at a
// time per backend; the two spins' backends run concurrently.
type Backend interface {
	// Cluster multiplies one block, dst = B_{base+k-1} ... B_{base}, from
	// the current field (a greens.BlockFunc).
	Cluster(dst *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, base, k int)
	// Wrap advances g to slice s: G <- B_s G B_s^{-1}.
	Wrap(g *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, s int)
	// Flush applies the delayed block update accumulated on slice s,
	// G += U[:, :m] * W[:, :m]^T.
	Flush(g, u, w *mat.Dense, m, s int)
}

// NewBackend constructs one spin's Backend over the sweeper's propagator,
// for the delay block nd the sweeper settled on.
type NewBackend func(p *hubbard.Propagator, sigma hubbard.Spin, nd int) Backend

// host is the CPU Backend: greens.Wrapper's block product and wrap, and
// blas.Gemm.
type host struct{ *greens.Wrapper }

func newHost(p *hubbard.Propagator, _ hubbard.Spin, _ int) Backend {
	return host{greens.NewWrapper(p)}
}

func (host) Flush(g, u, w *mat.Dense, m, _ int) {
	blas.Gemm(false, true, 1, u.View(0, 0, u.Rows, m), w.View(0, 0, w.Rows, m), 1, g)
}

// spinState carries one spin's Green's function, its backend, cluster
// products and stratification stack, and the delayed-update buffers: the
// effective Green's function during a slice is
// G_eff(i,j) = G(i,j) + sum_t U(i,t)*W(j,t) with t < m pending updates.
type spinState struct {
	be   Backend
	cs   *greens.ClusterSet // built block by block by be.Cluster
	st   *greens.StratStack // over cs; nil on the NoStack path
	g    *mat.Dense
	u, w *mat.Dense // N x nd accumulators, one shape and so one stride
	m    int        // pending update count

	// Pre-bound closures for the spin fork, so the per-slice hot paths
	// allocate nothing; their operands are the Sweeper's
	// slice/cluster/boundary fields. stepFn flushes slice s and wraps into
	// s+1 (with nothing pending, as at the first slice of a cluster, it is
	// the wrap alone); boundaryFn flushes the cluster's last slice,
	// recomputes the cluster product, advances the stack and refreshes;
	// flushFn applies a full delay block in mid-slice.
	stepFn, boundaryFn, flushFn func()

	// dur is the time this sector spent in each phase of the fork in
	// flight; timedFork reads and clears it at the join.
	dur [obs.NumPhases]time.Duration
}

// lap adds the time since t to the sector's share of phase p and returns the
// new stamp. Under a nil collector t is the zero time and stays it.
func (s *spinState) lap(p obs.Phase, t time.Time) time.Time {
	if t.IsZero() {
		return t
	}
	now := time.Now()
	s.dur[p] += now.Sub(t)
	return now
}

// effDiag returns G_eff(i,i).
//
//qmc:hot
func (s *spinState) effDiag(i int) float64 {
	gii := s.g.Data[i+i*s.g.Stride]
	ld := s.u.Stride
	u := s.u.Data[i : i+s.m*ld] // row i of U: u[t*ld] = U(i, t)
	w := s.w.Data[i : i+len(u)]
	for k := 0; k < len(u); k += ld {
		gii += u[k] * w[k]
	}
	return gii
}

// push appends the accepted flip at site i with amplitude factor = alpha/d:
// it assembles the effective column G_eff(:, i) and row G_eff(i, :) straight
// into the next u/w columns and scales them into the rank-1 pair. With our
// wrapping convention the updated slice's B_l sits *leftmost* in the cyclic
// product, M' = (I + alpha*e_i*e_i^T*(I-G)) * M, so
//
//	G' = G - (alpha/d) * (G e_i) * (e_i - G^T e_i)^T.
//
// (The paper's Section II-B prints the transposed variant, which belongs to
// the convention where the flipped slice is rightmost; the determinant
// ratio d = 1 + alpha*(1 - G_ii) is identical in both.)
//
// Each side is one blas.AxpyCols: it starts from column i (U side) or row i
// (W side) of G, read straight from G's storage, adds the pending updates
// with row i of the other side's accumulator as coefficients, and scales by
// -factor (U) or -1 (W) on the way out. Per element that is the FMA chain,
// in column order, of one blas.Axpy per pending column and side, then the
// one rounding of the scaling, so the pair is bitwise what a copy, a gather,
// those calls and a scaling pass assembled — except for the sign bit of a
// NaN, which a multiply by -1 keeps and a negation flips.
//
//qmc:hot
func (s *spinState) push(i int, factor float64) {
	n, m, ld := s.g.Rows, s.m, s.u.Stride
	wc := s.w.Col(m)
	blas.AxpyCols(n, m, s.u.Data[:m*ld], ld, s.w.Data[i:], ld, s.g.Col(i), 1, -factor, s.u.Col(m))
	blas.AxpyCols(n, m, s.w.Data[:m*ld], ld, s.u.Data[i:], ld, s.g.Data[i:], s.g.Stride, -1, wc)
	wc[i] += 1
	s.m++
}

// reportCond hands the UDT condition estimate of the sector's last stack
// refresh, if it left one, to col.
func (s *spinState) reportCond(col *obs.Collector) {
	if s.st == nil {
		return
	}
	if v, ok := s.st.TakeCond(); ok {
		col.SampleUDTCond(v)
	}
}

// flush applies the pending block update G += U * W^T through the backend
// (slice selects the owning device on a sharded backend) and resets the
// count.
//
//qmc:hot
func (s *spinState) flush(slice int) {
	if s.m == 0 {
		return
	}
	obs.Add(obs.OpDelayedFlushes, 1)
	s.be.Flush(s.g, s.u, s.w, s.m, slice)
	s.m = 0
}

// Options configures a Sweeper.
type Options struct {
	// ClusterK is the matrix clustering size k, which also sets the
	// wrapping count between stratified recomputations (the paper uses
	// k = l = 10). Must divide the slice count L.
	ClusterK int
	// Delay is the delayed-update block size nd (32 by default).
	Delay int
	// PrePivot selects Algorithm 3 (true, the paper's method) or the
	// Algorithm 2 QRP reference (false) for stratified recomputations.
	PrePivot bool
	// NoStack disables the prefix/suffix UDT stack and recomputes every
	// boundary Green's function by full host stratification of the
	// cluster chain — the pre-stack reference path, kept for
	// accuracy cross-checks and baseline benchmarks.
	NoStack bool
	// SerialSpins disables the concurrent execution of the up/down spin
	// phases (reference/baseline path; the arithmetic is identical either
	// way).
	SerialSpins bool
	// Obs, when non-nil, receives per-phase timings, operation counts and
	// stability telemetry. A nil collector costs nothing on the hot path.
	Obs *obs.Collector
	// StabilityEvery, when positive and Obs is enabled, compares the
	// stack-refreshed Green's function against a full stratified rebuild
	// every StabilityEvery cluster boundaries and records the relative
	// residual. The rebuild is a whole-chain stratification; it runs on an
	// idle core beside the sweep when there is one (see probe) and inline
	// otherwise, so it is sampled rather than continuous.
	StabilityEvery int
}

// Sweeper runs Metropolis sweeps over the HS field, maintaining the
// equal-time Green's functions for both spins with wrapping, delayed
// updates, cluster recycling and periodic stratified recomputation.
type Sweeper struct {
	Prop  *hubbard.Propagator
	Field *hubbard.Field
	Rng   *rng.Rand

	opts     Options
	up, dn   *spinState
	sign     float64
	accepted int64
	proposed int64

	// Operands of the per-spin pre-bound closures (see spinState).
	slice    int // slice being flushed; the step wraps into slice+1
	cluster  int // cluster being recomputed
	boundary int // boundary being refreshed

	forks int64 // calls of fork, for the fork-count tests

	// boundaryHook, when set, runs after every stratified refresh (i.e. at
	// every cluster boundary) with the Green's functions freshly
	// recomputed — the natural place for equal-time measurements, which
	// QUEST takes on multiple slices per sweep to reduce variance.
	boundaryHook func()
	// maxWrapDrift records the largest relative difference between the
	// wrapped Green's function and its stratified recomputation — the
	// numerical-accuracy diagnostic that motivates the wrapping limit.
	maxWrapDrift float64
	// boundaries counts stratified refreshes, pacing the StabilityEvery
	// residual check; checkStrat says whether the current one samples it.
	boundaries int64
	checkStrat bool
	probe      probe
}

// probe is the StabilityEvery residual check of one boundary, run beside
// the sweep. The spin-up refresh arms it with copies of what it reads: the
// stack's Green's function, the boundary's cluster chain (ClusterSet.Chain
// reuses its slice) and the chain's first cluster, which the next
// boundary's Recompute rewrites. Sweep starts it after the boundary fork
// (parallel.Start) and joins it before the boundary after the next one,
// whose Recompute rewrites the chain's second cluster; before arming it
// again; and before returning. The sample reaches the collector at the join,
// on the chain's goroutine, so its order and value are those of an inline
// check.
type probe struct {
	g, ref, head *mat.Dense   // stack's G, the rebuild, chain[0]'s copy; allocated at the first arm
	chain        []*mat.Dense // the boundary's chain with head in place of its first cluster
	armed        bool         // snapshot taken, not yet started
	running      bool         // started, not yet joined
	at           int64        // Sweeper.boundaries when started
	res          float64      // RelDiff(g, ref), valid once joined
	pending      parallel.Pending
	run          func() // pre-bound: the rebuild and the residual
}

// arm snapshots the check of the boundary whose chain is chain and whose
// stack-refreshed Green's function is g.
func (p *probe) arm(chain []*mat.Dense, g *mat.Dense) {
	if p.g == nil {
		n := g.Rows
		p.g, p.ref, p.head = mat.New(n, n), mat.New(n, n), mat.New(n, n)
	}
	if len(p.chain) != len(chain) {
		p.chain = make([]*mat.Dense, len(chain))
	}
	copy(p.chain, chain)
	p.head.CopyFrom(chain[0])
	p.chain[0] = p.head
	p.g.CopyFrom(g)
	p.armed = true
}

// NewSweeper prepares a sweeper over the host backend and computes the
// initial Green's functions by full stratification.
func NewSweeper(p *hubbard.Propagator, f *hubbard.Field, r *rng.Rand, opts Options) *Sweeper {
	return NewSweeperOn(p, f, r, opts, newHost)
}

// SnapClusterK returns the cluster size a Sweeper over l slices runs for a
// requested k: the default 10 when k < 1, decremented to the nearest divisor
// of l (l itself when k >= l).
func SnapClusterK(l, k int) int {
	if k < 1 {
		k = 10
	}
	k = min(k, l)
	for l%k != 0 {
		k--
	}
	return k
}

// NewSweeperOn is NewSweeper over the per-spin backends mk constructs (one
// call per spin, with the delay block snapped to the model).
func NewSweeperOn(p *hubbard.Propagator, f *hubbard.Field, r *rng.Rand, opts Options, mk NewBackend) *Sweeper {
	opts.ClusterK = SnapClusterK(p.Model.L, opts.ClusterK)
	if opts.Delay < 1 {
		opts.Delay = 32
	}
	if n := p.Model.N(); opts.Delay > n {
		opts.Delay = n
	}
	sw := &Sweeper{Prop: p, Field: f, Rng: r, opts: opts, sign: 1}
	sw.up = sw.newSpin(mk, hubbard.Up)
	sw.dn = sw.newSpin(mk, hubbard.Down)
	pb := &sw.probe
	pb.run = func() {
		greens.GreenInto(pb.ref, pb.chain, opts.PrePivot)
		pb.res = mat.RelDiff(pb.g, pb.ref)
	}
	start := sw.opts.Obs.Begin()
	sw.setBoundary(0)
	sw.fork(func() { sw.refreshSpin(sw.up, true) }, func() { sw.refreshSpin(sw.dn, false) })
	sw.startProbe(true)
	sw.joinProbe()
	sw.opts.Obs.End(obs.PhaseRefresh, start)
	return sw
}

// newSpin builds one spin sector: backend, cluster products, stack, Green's
// function and accumulators, and binds the sector's fork closures.
func (sw *Sweeper) newSpin(mk NewBackend, sigma hubbard.Spin) *spinState {
	o := sw.opts
	n := sw.Prop.Model.N()
	s := &spinState{g: mat.New(n, n), u: mat.New(n, o.Delay), w: mat.New(n, o.Delay)}
	cstart := o.Obs.Begin()
	s.be = mk(sw.Prop, sigma, o.Delay)
	s.cs = greens.NewClusterSetWith(sw.Prop, sw.Field, sigma, o.ClusterK, s.be.Cluster)
	o.Obs.End(obs.PhaseCluster, cstart)
	if !o.NoStack {
		sstart := o.Obs.Begin()
		s.st = greens.NewStratStack(s.cs, o.PrePivot)
		o.Obs.End(obs.PhaseRefresh, sstart)
	}
	// The wrap-drift diagnostic samples the spin-up sector only.
	trackDrift := sigma == hubbard.Up
	s.flushFn = func() { s.flush(sw.slice) }
	s.stepFn = func() {
		t := o.Obs.Begin()
		s.flush(sw.slice)
		t = s.lap(obs.PhaseFlush, t)
		s.be.Wrap(s.g, sw.Field, sigma, sw.slice+1)
		s.lap(obs.PhaseWrap, t)
	}
	s.boundaryFn = func() {
		t := o.Obs.Begin()
		s.flush(sw.slice)
		t = s.lap(obs.PhaseFlush, t)
		s.cs.Recompute(sw.Field, sw.cluster)
		t = s.lap(obs.PhaseCluster, t)
		if s.st != nil {
			// One prefix extension per boundary; GreenInto (inside
			// refreshSpin) combines it with the cached suffix.
			s.st.Advance()
		}
		sw.refreshSpin(s, trackDrift)
		s.lap(obs.PhaseRefresh, t)
	}
	return s
}

// fork runs the two per-spin closures through the pool, or serially when
// the sweeper was configured with SerialSpins.
func (sw *Sweeper) fork(up, dn func()) {
	sw.forks++
	if sw.opts.SerialSpins {
		up()
		dn()
		return
	}
	parallel.Pair(up, dn)
}

// timedFork is fork under the phase timers. A fused closure spans several
// phases and the two sectors run them concurrently, so each sector laps its
// own phases (spinState.dur) and the join splits the fork's wall time — t
// to now, hand-off and join wait included — over the phases in proportion
// to the time the two sectors spent in each. It returns the stamp taken at
// the join.
func (sw *Sweeper) timedFork(up, dn func(), t time.Time) time.Time {
	sw.fork(up, dn)
	if t.IsZero() {
		return t
	}
	now := time.Now()
	var sum [obs.NumPhases]time.Duration
	var total time.Duration
	for p := range sum {
		sum[p] = sw.up.dur[p] + sw.dn.dur[p]
		sw.up.dur[p], sw.dn.dur[p] = 0, 0
		total += sum[p]
	}
	scale := float64(now.Sub(t)) / float64(total)
	for p, d := range sum {
		if d > 0 {
			sw.opts.Obs.Charge(obs.Phase(p), time.Duration(scale*float64(d)))
		}
	}
	return now
}

// refreshSpin recomputes one spin's Green's function by stratification at
// the current boundary and, when trackDrift is set, records the drift of
// the wrapped copy.
func (sw *Sweeper) refreshSpin(s *spinState, trackDrift bool) {
	n := s.g.Rows
	gNew := mat.GetScratch(n, n)
	if s.st != nil {
		s.st.GreenInto(gNew)
		if trackDrift && sw.checkStrat {
			// Sampled stability check: the stack's amortized answer against
			// a from-scratch host stratification of the same cluster chain,
			// started once the fork has joined.
			sw.probe.arm(s.cs.Chain(sw.boundary), gNew)
		}
	} else {
		greens.GreenInto(gNew, s.cs.Chain(sw.boundary), sw.opts.PrePivot)
	}
	if trackDrift && sw.proposed > 0 {
		d := mat.RelDiff(s.g, gNew)
		// Loose bound: wrap drift is expected and merely bounded; only a
		// blow-up indicates a propagator or stratification bug.
		check.Drift("update.refreshSpin wrap", d, 0.05)
		if d > sw.maxWrapDrift {
			sw.maxWrapDrift = d
		}
		sw.opts.Obs.SampleWrapDrift(d)
	}
	s.g.CopyFrom(gNew)
	mat.PutScratch(gNew)
}

// startProbe starts the residual check armed at the boundary just
// refreshed, if any: on an idle pool worker, or inline when inline is set
// (SerialSpins, and the constructor's initial refresh) or no worker is idle.
//
//qmc:hot
func (sw *Sweeper) startProbe(inline bool) {
	p := &sw.probe
	if !p.armed {
		return
	}
	p.armed, p.running, p.at = false, true, sw.boundaries
	if inline {
		p.run()
		return
	}
	p.pending = parallel.Start(p.run)
}

// probeDue reports whether the check in flight must be joined before the
// fork of the boundary setBoundary just made current: that fork arms a new
// check, or, two boundaries after the check's own, its Recompute rewrites
// the check's second cluster.
func (sw *Sweeper) probeDue() bool {
	return sw.probe.running && (sw.checkStrat || sw.boundaries-sw.probe.at > 1)
}

// joinProbe waits for the check in flight, if any, and records its
// residual.
//
//qmc:hot
func (sw *Sweeper) joinProbe() {
	p := &sw.probe
	if !p.running {
		return
	}
	p.pending.Wait()
	p.running = false
	sw.opts.Obs.SampleStratResidual(p.res)
}

// setBoundary makes c the boundary the next refresh recomputes and decides
// whether that refresh samples the stack-vs-rebuild residual.
func (sw *Sweeper) setBoundary(c int) {
	sw.boundary = c
	sw.boundaries++
	sw.checkStrat = sw.opts.StabilityEvery > 0 && sw.opts.Obs.Enabled() &&
		sw.boundaries%int64(sw.opts.StabilityEvery) == 0
}

// SetBoundaryHook registers h to run after every stratified refresh, when
// GreenUp/GreenDn hold freshly recomputed Green's functions. Pass nil to
// disable. Used for per-boundary equal-time measurements.
func (sw *Sweeper) SetBoundaryHook(h func()) { sw.boundaryHook = h }

// Sweep performs one full sweep: every (slice, site) pair is visited once
// and a flip is proposed (Algorithm 1). On return the Green's functions
// correspond to the full chain (cluster boundary 0), ready for equal-time
// measurements.
//
//qmc:hot
func (sw *Sweeper) Sweep() {
	obs.Add(obs.OpSweeps, 1)
	model := sw.Prop.Model
	n := model.N()
	k := sw.opts.ClusterK
	t := sw.opts.Obs.Begin()
	for s := 0; s < model.L; s++ {
		if s%k == 0 {
			// First slice of a cluster: the boundary behind it left nothing
			// pending, so this step is the wrap into slice s alone,
			// G <- B_s G B_s^{-1}.
			sw.slice = s - 1
			t = sw.timedFork(sw.up.stepFn, sw.dn.stepFn, t)
		}
		sw.slice = s
		for i := 0; i < n; i++ {
			sw.proposeFlip(s, i)
		}
		t = sw.opts.Obs.Lap(obs.PhaseFlush, t)
		if (s+1)%k != 0 {
			t = sw.timedFork(sw.up.stepFn, sw.dn.stepFn, t)
			continue
		}
		c := s / k
		sw.cluster = c
		sw.setBoundary((c + 1) % sw.up.cs.NC)
		if sw.probeDue() {
			sw.joinProbe()
			t = sw.opts.Obs.Lap(obs.PhaseRefresh, t)
		}
		t = sw.timedFork(sw.up.boundaryFn, sw.dn.boundaryFn, t)
		// Up before down, whichever sector's refresh finished first: the
		// collector's running sums then repeat bit for bit.
		sw.up.reportCond(sw.opts.Obs)
		sw.dn.reportCond(sw.opts.Obs)
		sw.startProbe(sw.opts.SerialSpins)
		// The condition reports and the check's hand-off are refresh
		// bookkeeping; with a hook they would fall between two phases.
		t = sw.opts.Obs.Lap(obs.PhaseRefresh, t)
		if sw.boundaryHook != nil {
			sw.boundaryHook()
			t = sw.opts.Obs.Begin()
		}
	}
	// No check outlives its sweep: the caller may resize the clusters, and
	// the autopilot closes the sweep's sample window.
	if sw.probe.running {
		sw.joinProbe()
		sw.opts.Obs.End(obs.PhaseRefresh, t)
	}
}

// proposeFlip carries out the Metropolis step for h[s][i].
//
//qmc:hot
func (sw *Sweeper) proposeFlip(s, i int) {
	h := sw.Field.H[s][i]
	aUp := sw.Prop.Alpha(hubbard.Up, h)
	aDn := sw.Prop.Alpha(hubbard.Down, h)
	dUp := 1 + aUp*(1-sw.up.effDiag(i))
	dDn := 1 + aDn*(1-sw.dn.effDiag(i))
	r := dUp * dDn * sw.Prop.BosonRatio(h)
	sw.proposed++
	ar := r
	if ar < 0 {
		ar = -ar
	}
	if ar < 1 && sw.Rng.Float64() >= ar {
		return
	}
	// Accepted. A push is one AxpyCols pass per side, about 4*N*(m+1)
	// flops: 0.03-0.08 us at N = 16, 0.06-0.23 us at N = 36 and 0.11-1.1 us
	// at N = 144 from m = 0 to a full block (operands in cache, 2-CPU
	// AVX-512 Xeon), against a pool hand-off's 0.6 us round trip. Forking
	// the pair could gain a fraction of a microsecond on a nearly full block
	// at N = 144 only and loses everywhere else, so the two run back to
	// back.
	sw.accepted++
	if r < 0 {
		sw.sign = -sw.sign
	}
	sw.up.push(i, aUp/dUp)
	sw.dn.push(i, aDn/dDn)
	sw.Field.Flip(s, i)
	if sw.up.m == sw.opts.Delay {
		sw.fork(sw.up.flushFn, sw.dn.flushFn)
	}
}

// GreenUp returns the spin-up equal-time Green's function (valid after
// Sweep returns; do not modify).
func (sw *Sweeper) GreenUp() *mat.Dense { return sw.up.g }

// GreenDn returns the spin-down Green's function.
func (sw *Sweeper) GreenDn() *mat.Dense { return sw.dn.g }

// Sign returns the current fermion sign of the configuration weight.
func (sw *Sweeper) Sign() float64 { return sw.sign }

// SetSign restores a checkpointed sign (the sign is tracked incrementally
// across flips, so a resumed chain must start from the saved value).
func (sw *Sweeper) SetSign(s float64) { sw.sign = s }

// AcceptanceRate returns accepted/proposed over the sweeper's lifetime.
func (sw *Sweeper) AcceptanceRate() float64 {
	if sw.proposed == 0 {
		return 0
	}
	return float64(sw.accepted) / float64(sw.proposed)
}

// Counters returns the lifetime Metropolis accept/propose counts.
func (sw *Sweeper) Counters() (accepted, proposed int64) {
	return sw.accepted, sw.proposed
}

// SetCounters restores checkpointed Metropolis counters so a resumed
// chain's acceptance rate spans the whole run.
func (sw *Sweeper) SetCounters(accepted, proposed int64) {
	sw.accepted, sw.proposed = accepted, proposed
}

// MaxWrapDrift reports the largest observed relative difference between a
// wrapped Green's function and its stratified recomputation.
func (sw *Sweeper) MaxWrapDrift() float64 { return sw.maxWrapDrift }

// ClusterK returns the clustering size actually in use.
func (sw *Sweeper) ClusterK() int { return sw.opts.ClusterK }

// SetStabilityEvery changes the stack-vs-rebuild residual check cadence
// (boundaries between checks; <= 0 disables). Takes effect at the next
// refresh; the cadence never influences the Markov chain, only how often
// the diagnostic is sampled.
func (sw *Sweeper) SetStabilityEvery(n int) {
	if n < 0 {
		n = 0
	}
	sw.opts.StabilityEvery = n
}

// SetClusterK switches the sweeper to cluster size k — the stability
// autopilot's actuator. k is snapped like NewSweeper's (SnapClusterK) and
// returned. Call only between sweeps: the Green's functions then sit at
// cluster boundary 0, which is independent of the clustering, so the resize
// rebuilds the cluster products through the backends and retargets the
// stratification stacks without touching G or the field — the Markov chain
// continues exactly where it was.
func (sw *Sweeper) SetClusterK(k int) int {
	k = SnapClusterK(sw.Prop.Model.L, k)
	if k == sw.opts.ClusterK {
		return k
	}
	sw.opts.ClusterK = k
	cstart := sw.opts.Obs.Begin()
	sw.up.cs.SetK(sw.Field, k)
	sw.dn.cs.SetK(sw.Field, k)
	sw.opts.Obs.End(obs.PhaseCluster, cstart)
	if sw.up.st != nil {
		sstart := sw.opts.Obs.Begin()
		sw.up.st.Retarget(sw.up.cs)
		sw.dn.st.Retarget(sw.dn.cs)
		sw.opts.Obs.End(obs.PhaseRefresh, sstart)
	}
	return k
}
