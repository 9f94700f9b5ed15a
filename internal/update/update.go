// Package update owns the Markov chain of the DQMC algorithm (Algorithm 1 of
// the paper): one Sweeper carries the Metropolis loop, the host-side delayed
// rank-1 accumulators, the fermion sign, the accept/propose counters, the
// refresh scheduling and the drift/residual probes — everything that is
// serial and latency-bound. The level-3 work of a sweep (wrapping, cluster
// products and the blocked flush G += U*W^T that turns nd rank-1 updates
// into one GEMM) goes through a per-spin Backend of three kernels, so the
// same chain runs on the host kernels (NewSweeper) or on simulated
// accelerators (NewSweeperOn with gpu.NewBackend) — the paper's hybrid split
// of Section VI. Cluster storage, chain order and stratification stay with
// the Sweeper on every backend, so below the host's separable-propagator
// gate (greens.Wrapper: from 144 sites up on a single plane without t')
// every backend produces the same chain bit for bit. Above it the host
// applies the kinetic propagator by its Kronecker factors and the device by
// dense GEMMs, and the two agree to rounding: the same decisions, G within
// the chain's rounding floor (shadow_test.go).
//
// Five optimizations sit on top of the paper's Algorithm 1:
//
//   - The per-boundary stratified refresh goes through greens.StratStack
//     over the spin's greens.ClusterSet, which caches suffix UDT
//     decompositions (built once per sweep) and extends a prefix UDT by one
//     cluster per boundary, so each refresh costs O(1) cluster-UDT steps
//     instead of re-running the whole L/k-cluster chain. It is the only
//     refresh path; the full rebuild, greens.GreenInto over the set's chain,
//     is the reference the sampled residual check compares it against.
//   - The heavy per-spin phases — wrapping, delayed-update flushes,
//     cluster recomputation, stratified refreshes — are independent between
//     the up and down sectors and fork onto the parallel pool
//     (parallel.Pair) through three closures per sector: stepFn (flush
//     slice s, wrap into s+1), boundaryFn (flush, recompute the cluster,
//     advance the stack, refresh) and flushFn (a full delay block in
//     mid-slice). The boundary forks at every lattice size. The per-slice
//     step and the mid-slice flush fork only from stepForkMinN sites up,
//     where a sector's flush and wrap outweigh the hand-off; below it they
//     run up then down on the chain's goroutine. A sweep therefore forks
//     L + NC times, plus once per full delay block, from stepForkMinN sites
//     up, and NC times below. Only the per-site Metropolis loop, which needs
//     both spins' effective diagonal, and the boundary hook stay
//     synchronous. Options.SerialSpins runs every fork's closures serially.
//     Each spin owns its backend, so no scratch is shared across the fork,
//     and the stack's stability samples reach the collector after the join
//     in a fixed order, so the metrics repeat bit for bit too.
//   - The Metropolis loop reads G, U and W through their storage. Below
//     onDemandMinN sites an accepted flip builds each side of its rank-1
//     pair with one blas.AxpyCols: G's column or row, the pending updates
//     and the scaling in one register-blocked pass, bitwise the per-column
//     blas.Axpy calls it replaced. From onDemandMinN up, where the blas
//     delay kernels are vectorized (the AVX-512 family), the loop builds only
//     what it reads, the row of the site it visits (blas.DelayRows, O(m²)
//     for both sectors at once), an accepted flip records its site and
//     its rows of U and W, and the flush fills the rest of both
//     accumulators (blas.DelayFill) inside each sector's forked closure,
//     before the same GEMM: the same U and W, bit for bit, with the
//     N-length work moved off the chain's goroutine.
//   - The sampled stack-vs-rebuild residual check (Options.StabilityEvery)
//     runs beside the sweep, not inside it: the boundary's refresh snapshots
//     what the check reads, Sweep hands the whole-chain rebuild to an idle
//     pool worker (parallel.Start) and joins it up to two boundaries later,
//     delivering the sample on the chain's goroutine. With no idle core the
//     check runs inline.
//   - Below stepForkMinN, where the per-slice steps run inline and the pool
//     worker would idle between the boundary forks, the sweep's other
//     off-path work runs beside the chain too (offCore): the stacks' roll,
//     the suffix rebuild the last sweep left to the first boundary's
//     Advance, started at the sweep's head, and the boundary hooks, which
//     no later step of the sweep reads. Each is a task handed to an idle
//     worker (parallel.Start), inline when none is idle, and joined before
//     anything reads what it writes or needs its worker, and within its
//     sweep. Elsewhere that Advance runs the roll in each sector's fork.
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
	st   *greens.StratStack // over cs
	g    *mat.Dense
	u, w *mat.Dense // N x nd accumulators, one shape and so one stride
	m    int        // pending update count
	err  error      // the first error a refresh of this sector returned

	// od is the sector's on-demand delayed update (see onDemandMinN); its
	// block is nil where the sector pushes eagerly.
	od onDemand

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

// onDemand is a sector's delayed update built on demand: the Metropolis
// loop stores only the row of each site it visits (Sweeper.siteRows), an
// accepted flip records its site, its U-side scale and its rows of U and W
// (push, blas.DelaySector.Record), and the flush fills the rest of U and W
// before the GEMM (blas.DelayFill). sec holds the recorded block; next is one past
// the last visited site, the first row the loop has not stored.
type onDemand struct {
	sec  *blas.DelaySector
	next int
}

// siteRows stores row i of the pending columns of U and W in both sectors,
// the row effDiag(i) and the push at i read, when they build their columns
// on demand.
//
//qmc:hot
func (sw *Sweeper) siteRows(i int) {
	up, dn := &sw.up.od, &sw.dn.od
	if m := sw.up.m; m > 0 {
		blas.DelayRows(m, i, up.sec, dn.sec)
	}
	up.next, dn.next = i+1, i+1
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
// NaN, which a multiply by -1 keeps and a negation flips. A sector that
// builds its pairs on demand records the flip instead: its site, its scale
// and the row siteRows(i) stored, no N-length work; the elements reach the
// GEMM with the same bits through blas.DelayRows and blas.DelayFill.
//
//qmc:hot
func (s *spinState) push(i int, factor float64) {
	if s.od.sec != nil {
		s.od.sec.Record(s.m, i, -factor)
		s.m++
		return
	}
	n, m, ld := s.g.Rows, s.m, s.u.Stride
	wc := s.w.Col(m)
	blas.AxpyCols(n, m, s.u.Data[:m*ld], ld, s.w.Data[i:], ld, s.g.Col(i), 1, -factor, s.u.Col(m))
	blas.AxpyCols(n, m, s.w.Data[:m*ld], ld, s.u.Data[i:], ld, s.g.Data[i:], s.g.Stride, -1, wc)
	wc[i] += 1
	s.m++
}

// report hands what the sector's last refresh left to the chain's
// goroutine: its UDT condition estimate, if any, to the collector, and its
// first error to the sweeper's, if that has none yet.
func (sw *Sweeper) report(s *spinState) {
	if v, ok := s.st.TakeCond(); ok {
		sw.opts.Obs.SampleUDTCond(v)
	}
	if sw.err == nil {
		sw.err = s.err
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
	if s.od.sec != nil {
		blas.DelayFill(s.m, s.od.next, s.od.sec)
	}
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
	// SerialSpins disables the concurrent execution of the up/down spin
	// phases: every fork, the boundary's included, runs its two closures
	// one after the other (reference/baseline path; the arithmetic is
	// identical either way). Below stepForkMinN sites the per-slice steps
	// run serially with or without it.
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

	forkSteps bool          // N >= stepForkMinN: the per-slice steps fork (see step)
	forks     int64         // calls of fork, for the fork-count tests
	forkWait  time.Duration // this sweep's fork wait so far (see timedFork)

	// roll is the stacks' roll, run off-core at the sweep's head (see
	// offCore); rollWait is the chain's time at its start and its join,
	// charged to the first boundary fork's refresh share (timedFork).
	roll     task
	rollWait time.Duration

	// boundaryHook, when set, runs after every stratified refresh (i.e. at
	// every cluster boundary) with the Green's functions freshly
	// recomputed — the natural place for equal-time measurements, which
	// QUEST takes on multiple slices per sweep to reduce variance. hook
	// carries its off-core runs.
	boundaryHook BoundaryHook
	hook         hookRun
	// maxWrapDrift records the largest relative difference between the
	// wrapped Green's function and its stratified recomputation — the
	// numerical-accuracy diagnostic that motivates the wrapping limit. A NaN
	// drift sticks: no later drift compares above it.
	maxWrapDrift float64
	// err is the first error a stratified refresh returned (see Err).
	err error
	// boundaries counts stratified refreshes, pacing the StabilityEvery
	// residual check; checkStrat says whether the current one samples it.
	boundaries int64
	checkStrat bool
	probe      probe
}

// task is a piece of a sweep's off-path work, pre-bound in run: the
// residual check, the stacks' roll or a boundary hook. Sweep joins every
// task it starts before it returns.
type task struct {
	running bool // started, not yet joined
	pending parallel.Pending
	run     func()
}

// start runs the task inline or hands it to an idle worker (parallel.Start,
// inline when none is idle).
//
//qmc:hot
func (t *task) start(inline bool) {
	t.running = true
	if inline {
		t.run()
		return
	}
	t.pending = parallel.Start(t.run)
}

// join waits for the task in flight, if any, and reports whether there was
// one.
//
//qmc:hot
func (t *task) join() bool {
	if !t.running {
		return false
	}
	t.pending.Wait()
	t.running = false
	return true
}

// probe is the StabilityEvery residual check of one boundary, run beside
// the sweep. The spin-up refresh arms it with copies of what it reads: the
// stack's Green's function, the boundary's cluster chain (ClusterSet.Chain
// reuses its slice) and the chain's first cluster, which the next
// boundary's Recompute rewrites. Sweep starts it after the boundary fork
// and joins it before the boundary after the next one, whose Recompute
// rewrites the chain's second cluster; before arming it again; and before
// returning. The sample reaches the collector at the join, on the chain's
// goroutine, so its order and value are those of an inline check.
type probe struct {
	task                      // run: the rebuild and the residual
	g, ref, head *mat.Dense   // stack's G, the rebuild, chain[0]'s copy; allocated at the first arm
	chain        []*mat.Dense // the boundary's chain with head in place of its first cluster
	armed        bool         // snapshot taken, not yet started
	at           int64        // Sweeper.boundaries when started
	res          float64      // RelDiff(g, ref), valid once joined
}

// BoundaryHook receives the Green's functions of a boundary just refreshed
// and the fermion sign there. Below stepForkMinN it may run on a pool worker
// beside the chain, over copies: it must not keep gup or gdn past its
// return, and it must not touch what the chain's goroutine uses between
// sweeps (the Sweeper, the obs.Collector) — whatever it writes is the
// caller's to read once Sweep has returned. Hooks run one at a time, in
// boundary order.
type BoundaryHook func(gup, gdn *mat.Dense, sign float64)

// hookRun is a boundary hook's run beside the chain: the snapshot it reads,
// allocated at the first, and the task, joined before the next boundary's
// fork.
type hookRun struct {
	task     // run: the hook over the snapshot
	gup, gdn *mat.Dense
	sign     float64
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
	sw := &Sweeper{Prop: p, Field: f, Rng: r, opts: opts, sign: 1, forkSteps: p.Model.N() >= stepForkMinN}
	sw.up = sw.newSpin(mk, hubbard.Up)
	sw.dn = sw.newSpin(mk, hubbard.Down)
	pb := &sw.probe
	pb.run = func() {
		// A singular rebuild shows as a non-finite residual.
		_ = greens.GreenInto(pb.ref, pb.chain, opts.PrePivot)
		pb.res = mat.RelDiff(pb.g, pb.ref)
	}
	sw.roll.run = func() {
		sw.up.st.Rebuild()
		sw.dn.st.Rebuild()
	}
	hk := &sw.hook
	hk.run = func() { sw.boundaryHook(hk.gup, hk.gdn, hk.sign) }
	start := sw.opts.Obs.Begin()
	sw.setBoundary(0)
	sw.fork(func() { sw.refreshSpin(sw.up, true) }, func() { sw.refreshSpin(sw.dn, false) })
	sw.report(sw.up)
	sw.report(sw.dn)
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
	if n >= onDemandMinN && o.Delay <= blas.DelayRowsMax && blas.DelayVectorized() {
		s.od.sec = blas.NewDelaySector(s.g, s.u, s.w)
	}
	cstart := o.Obs.Begin()
	s.be = mk(sw.Prop, sigma, o.Delay)
	s.cs = greens.NewClusterSetWith(sw.Prop, sw.Field, sigma, o.ClusterK, s.be.Cluster)
	o.Obs.End(obs.PhaseCluster, cstart)
	sstart := o.Obs.Begin()
	s.st = greens.NewStratStack(s.cs, o.PrePivot)
	o.Obs.End(obs.PhaseRefresh, sstart)
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
		// One prefix extension per boundary; refreshSpin combines it with
		// the cached suffix. At boundary 0 the prefix spans the chain and
		// the roll is left to the next sweep: to this Advance at its first
		// boundary, unless Sweep ran it off-core.
		s.st.Advance()
		sw.refreshSpin(s, trackDrift)
		s.lap(obs.PhaseRefresh, t)
	}
	return s
}

// stepForkMinN is the lattice size from which a slice's flush and wrap fork
// the two spin sectors onto the pool. Below it a sector's step is a few
// microseconds, which the hand-off and the join cost back, so the steps run
// up then down on the chain's goroutine. BenchmarkSweepSpinFork times a bare
// Sweep both ways at N = 16, 20, 25, 30, 36 and 64 (EXPERIMENTS.md, "the
// spin fork only where it pays"). The constant only has to lie in (16, 36]:
// inline steps win at N = 16 (4x4) and forked ones at N = 36 (6x6), and no
// benchmarked workload runs between them. Where exactly the crossover lies
// in that interval the 2-CPU measurements do not resolve: inline led at 20
// and 25, and at 30 passes disagreed.
const stepForkMinN = 36

// onDemandMinN is the lattice size from which a sector builds its pending
// rank-1 pairs on demand (spinState.od, for delay blocks of at most
// blas.DelayRowsMax): the Metropolis loop stores only the row of each site
// it visits, O(m²) at every site, and the flush fills the rest of both
// accumulators before the GEMM, O(N·m²) per block on both sectors at once,
// instead of the eager push's O(N·m) per accepted flip on the chain's
// goroutine. U and W reach the GEMM bit for bit as the push builds them.
// BenchmarkSweepOnDemand times a bare Sweep both ways at N = 36, 49, 64,
// 100 and 144 (EXPERIMENTS.md, "site rows on demand"): the eager push wins
// at 36 and 49, the two tie at 64 within the 2-CPU box's spread, and the
// on-demand rows win at 100 and clearly at 144, so the gate is the
// smallest size measured to win. Below it the per-site rows, the fill's
// fixed cost per block and the recording cost more than the N-length
// pushes they replace. Those runs used the AVX-512 kernels, so the gate
// also needs blas.DelayVectorized: in the other families the kernels are
// the axpyCols-built Go bodies, and a scratch run of such scalar rows with
// an AxpyCols fill was 10% slower at 12x12 than the eager push.
const onDemandMinN = 100

// offCore reports whether the sweep's off-path work — the stacks' roll at
// its head and the boundary hooks — is handed to an idle pool worker beside
// the chain: where the per-slice steps run inline (below stepForkMinN), so
// the worker is free between the boundary forks, and the spins fork at all
// (not under SerialSpins). Either way the work is the same arithmetic on
// the same operands.
func (sw *Sweeper) offCore() bool { return !sw.forkSteps && !sw.opts.SerialSpins }

// step flushes slice sw.slice and wraps both sectors into sw.slice+1. From
// stepForkMinN sites up it forks the sectors' stepFn closures (timedFork);
// below, it runs the same kernels up then down on the chain's goroutine and
// laps flush and wrap as measured. It returns the stamp the next phase
// starts at.
//
//qmc:hot
func (sw *Sweeper) step(t time.Time) time.Time {
	if sw.forkSteps {
		return sw.timedFork(sw.up.stepFn, sw.dn.stepFn, t)
	}
	sw.up.flush(sw.slice)
	sw.dn.flush(sw.slice)
	t = sw.opts.Obs.Lap(obs.PhaseFlush, t)
	sw.up.be.Wrap(sw.up.g, sw.Field, hubbard.Up, sw.slice+1)
	sw.dn.be.Wrap(sw.dn.g, sw.Field, hubbard.Down, sw.slice+1)
	return sw.opts.Obs.Lap(obs.PhaseWrap, t)
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
// to the time the two sectors spent in each; a boundary fork's refresh share
// also takes the chain's time at the off-core roll's start and join
// (rollWait), refresh time without a charge of its own. What the wall
// time exceeds the longer sector by (the hand-off, the join wait, or the
// shorter sector when no worker was idle) is fork wait, summed over the
// sweep and handed to the collector once at its end; under SerialSpins
// nothing forked and nothing is recorded. It returns the stamp taken at the
// join.
func (sw *Sweeper) timedFork(up, dn func(), t time.Time) time.Time {
	sw.fork(up, dn)
	if t.IsZero() {
		return t
	}
	now := time.Now()
	var sum [obs.NumPhases]time.Duration
	var upT, dnT time.Duration
	for p := range sum {
		upT += sw.up.dur[p]
		dnT += sw.dn.dur[p]
		sum[p] = sw.up.dur[p] + sw.dn.dur[p]
		sw.up.dur[p], sw.dn.dur[p] = 0, 0
	}
	wall := now.Sub(t)
	if !sw.opts.SerialSpins {
		sw.forkWait += wall - max(upT, dnT)
	}
	scale := float64(wall) / float64(upT+dnT)
	for p, d := range sum {
		if d == 0 {
			continue
		}
		c := time.Duration(scale * float64(d))
		if obs.Phase(p) == obs.PhaseRefresh {
			c += sw.rollWait
			sw.rollWait = 0
		}
		sw.opts.Obs.Charge(obs.Phase(p), c)
	}
	return now
}

// refreshSpin recomputes one spin's Green's function from the stack at the
// current boundary, keeping the sector's first error, and, when trackDrift
// is set, records the drift of the wrapped copy. It leaves the stack's roll
// to the caller.
func (sw *Sweeper) refreshSpin(s *spinState, trackDrift bool) {
	n := s.g.Rows
	gNew := mat.GetScratch(n, n)
	if err := s.st.GreenUnrolledInto(gNew); err != nil && s.err == nil {
		s.err = err
	}
	if trackDrift && sw.checkStrat {
		// Sampled stability check: the stack's amortized answer against a
		// from-scratch host stratification of the same cluster chain,
		// started once the fork has joined.
		sw.probe.arm(s.cs.Chain(sw.boundary), gNew)
	}
	if trackDrift && sw.proposed > 0 {
		d := mat.RelDiff(s.g, gNew)
		// Loose bound: wrap drift is expected and merely bounded; only a
		// blow-up indicates a propagator or stratification bug.
		check.Drift("update.refreshSpin wrap", d, 0.05)
		if d > sw.maxWrapDrift || d != d {
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
	p.armed, p.at = false, sw.boundaries
	p.start(inline)
}

// probeDue reports whether the check in flight must be joined before the
// fork of the boundary setBoundary just made current: that fork arms a new
// check, or, two boundaries after the check's own, its Recompute rewrites
// the check's second cluster.
func (sw *Sweeper) probeDue() bool {
	return sw.probe.running && (sw.checkStrat || sw.boundaries-sw.probe.at > 1)
}

// joinProbe waits for the check in flight, if any, records its residual
// and reports whether there was one.
//
//qmc:hot
func (sw *Sweeper) joinProbe() bool {
	if !sw.probe.join() {
		return false
	}
	sw.opts.Obs.SampleStratResidual(sw.probe.res)
	return true
}

// setBoundary makes c the boundary the next refresh recomputes and decides
// whether that refresh samples the stack-vs-rebuild residual.
func (sw *Sweeper) setBoundary(c int) {
	sw.boundary = c
	sw.boundaries++
	sw.checkStrat = sw.opts.StabilityEvery > 0 && sw.opts.Obs.Enabled() &&
		sw.boundaries%int64(sw.opts.StabilityEvery) == 0
}

// SetBoundaryHook registers h to run after every stratified refresh, with
// the freshly recomputed Green's functions and the sign. Pass nil to
// disable. Used for per-boundary equal-time measurements; see BoundaryHook
// for what h may touch.
func (sw *Sweeper) SetBoundaryHook(h BoundaryHook) { sw.boundaryHook = h }

// Sweep performs one full sweep: every (slice, site) pair is visited once
// and a flip is proposed (Algorithm 1). On return the Green's functions
// correspond to the full chain (cluster boundary 0), ready for equal-time
// measurements, and nothing the sweep started is in flight: every
// boundary hook has returned, and so has the last residual check. The
// stacks' roll for the next sweep is left to that sweep.
//
//qmc:hot
func (sw *Sweeper) Sweep() {
	obs.Add(obs.OpSweeps, 1)
	model := sw.Prop.Model
	n := model.N()
	k := sw.opts.ClusterK
	t := sw.opts.Obs.Begin()
	if sw.offCore() && !sw.up.st.Rolled() {
		// The roll runs beside the first cluster's slices, which read no
		// cluster product, and is joined before the first boundary fork.
		sw.roll.start(false)
		t = sw.lapRoll(t)
	}
	for s := 0; s < model.L; s++ {
		if s%k == 0 {
			// First slice of a cluster: the boundary behind it left nothing
			// pending, so this step is the wrap into slice s alone,
			// G <- B_s G B_s^{-1}.
			sw.slice = s - 1
			t = sw.step(t)
		}
		sw.slice = s
		for i := 0; i < n; i++ {
			sw.proposeFlip(s, i)
		}
		t = sw.opts.Obs.Lap(obs.PhaseFlush, t)
		if (s+1)%k != 0 {
			t = sw.step(t)
			continue
		}
		c := s / k
		sw.cluster = c
		sw.setBoundary((c + 1) % sw.up.cs.NC)
		if sw.probeDue() {
			sw.joinProbe()
			t = sw.opts.Obs.Lap(obs.PhaseRefresh, t)
		}
		// The fork needs the worker, and its Advance the roll's stacks.
		if sw.hook.join() {
			t = sw.opts.Obs.Lap(obs.PhaseMeasure, t)
		}
		if sw.roll.join() {
			t = sw.lapRoll(t)
		}
		t = sw.timedFork(sw.up.boundaryFn, sw.dn.boundaryFn, t)
		// Up before down, whichever sector's refresh finished first: the
		// collector's running sums and the first error then repeat bit for
		// bit.
		sw.report(sw.up)
		sw.report(sw.dn)
		sw.startProbe(sw.opts.SerialSpins)
		// The condition reports and the hand-offs are refresh bookkeeping;
		// with a hook they would fall between two phases.
		t = sw.opts.Obs.Lap(obs.PhaseRefresh, t)
		if sw.boundaryHook != nil {
			sw.runHook()
			t = sw.opts.Obs.Lap(obs.PhaseMeasure, t)
		}
	}
	// No check outlives its sweep: the caller may resize the clusters, and
	// the autopilot closes the sweep's sample window.
	if sw.joinProbe() {
		sw.opts.Obs.End(obs.PhaseRefresh, t)
	}
	sw.opts.Obs.AddForkWait(sw.forkWait)
	sw.forkWait = 0
}

// runHook runs the boundary hook: offCore, over a snapshot on an idle
// worker, and inline otherwise. Boundary 0's hook, the sweep's last, runs
// inline too, because Sweep returns right after it.
//
//qmc:hot
func (sw *Sweeper) runHook() {
	if sw.boundary == 0 || !sw.offCore() {
		sw.boundaryHook(sw.up.g, sw.dn.g, sw.sign)
		return
	}
	hk := &sw.hook
	if hk.gup == nil {
		n := sw.up.g.Rows
		hk.gup, hk.gdn = mat.New(n, n), mat.New(n, n)
	}
	hk.gup.CopyFrom(sw.up.g)
	hk.gdn.CopyFrom(sw.dn.g)
	hk.sign = sw.sign
	hk.start(false)
}

// lapRoll adds the time since t, the off-core roll's start or join, to
// rollWait and returns the new stamp.
func (sw *Sweeper) lapRoll(t time.Time) time.Time {
	if t.IsZero() {
		return t
	}
	now := time.Now()
	sw.rollWait += now.Sub(t)
	return now
}

// proposeFlip carries out the Metropolis step for h[s][i].
//
//qmc:hot
func (sw *Sweeper) proposeFlip(s, i int) {
	if sw.up.od.sec != nil {
		sw.siteRows(i)
	}
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
	// Accepted. An eager push (below onDemandMinN) is one AxpyCols pass
	// per side, about 4*N*(m+1) flops: 0.03-0.08 us at N = 16 and
	// 0.06-0.23 us at N = 36 from m = 0 to a full block (operands in cache,
	// 2-CPU AVX-512 Xeon), against a pool hand-off's 0.6 us round trip, so
	// the two run back to back. From onDemandMinN up, on AVX-512, the push
	// records the flip (2m copies a sector) and the site rows above cost
	// 0.1-0.5 us at N = 144 from m = 8 to a full block, for both sectors,
	// at every visited site; the eager push there took 0.11-1.1 us a
	// sector per accepted flip.
	sw.accepted++
	if r < 0 {
		sw.sign = -sw.sign
	}
	sw.up.push(i, aUp/dUp)
	sw.dn.push(i, aDn/dDn)
	sw.Field.Flip(s, i)
	if sw.up.m != sw.opts.Delay {
		return
	}
	if sw.forkSteps {
		sw.fork(sw.up.flushFn, sw.dn.flushFn)
		return
	}
	sw.up.flush(s)
	sw.dn.flush(s)
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
// wrapped Green's function and its stratified recomputation, NaN once any
// was NaN.
func (sw *Sweeper) MaxWrapDrift() float64 { return sw.maxWrapDrift }

// SetMaxWrapDrift restores a checkpointed lifetime maximum wrap drift.
func (sw *Sweeper) SetMaxWrapDrift(d float64) { sw.maxWrapDrift = d }

// Err returns the first error a stratified refresh returned (up before down
// at one boundary), or nil: lapack.ErrSingular where I + B...B is singular.
// The chain runs on over the non-finite G, so callers check between sweeps.
func (sw *Sweeper) Err() error { return sw.err }

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
	sstart := sw.opts.Obs.Begin()
	sw.up.st.Retarget(sw.up.cs)
	sw.dn.st.Retarget(sw.dn.cs)
	sw.opts.Obs.End(obs.PhaseRefresh, sstart)
	return k
}
