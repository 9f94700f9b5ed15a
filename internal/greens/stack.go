package greens

import (
	"fmt"
	"math"

	"questgo/internal/blas"
	"questgo/internal/check"
	"questgo/internal/lapack"
	"questgo/internal/mat"
)

// StratStack amortizes the per-boundary stratified Green's function
// recomputation of a sweep (Section III cluster recycling; Bauer,
// SciPost 2020, arXiv:2003.05286).
//
// The naive sweeper rebuilds the whole L/k-cluster UDT chain at every
// cluster boundary, i.e. O((L/k)^2) cluster-UDT steps per sweep. The stack
// exploits the sweep's access pattern instead. At boundary c the chain is
//
//	P(c) = Bhat_{c-1}' ... Bhat_0' * Bhat_{NC-1} ... Bhat_c,
//
// where primes mark clusters already re-sampled this sweep. The left
// ("prefix") factor grows by exactly one cluster per boundary, so its UDT
// is extended incrementally — one extendUDT step per boundary. The right
// ("suffix") factors shrink from the left, which is the wrong direction for
// UDT extension; but all of them are built from *unchanged* clusters, so
// the stack precomputes every suffix decomposition once per sweep in a
// single backward pass over the transposed clusters:
//
//	suf[j] = UDT of (Bhat_{NC-1} ... Bhat_j)^T
//	       = extend(suf[j+1], Bhat_j^T),
//
// i.e. NC-1 extension steps total, snapshotting after each. A boundary then
// costs one prefix extension plus one combine (a single QR of the scaled
// middle matrix), for ~3*NC steps per sweep instead of NC^2.
//
// Usage per sweep, mirroring Sweeper.Sweep: after re-sampling and
// recomputing cluster c, call Advance (absorbs cluster c into the prefix)
// and then GreenInto (Green's function at boundary c+1). When the prefix
// has absorbed all NC clusters, GreenInto evaluates the full chain from the
// prefix alone — arithmetically identical to the from-scratch
// stratification of Chain(0) — and then rolls: the suffix stack is rebuilt
// from the now-current clusters and the prefix is reset for the next sweep.
type StratStack struct {
	src      *ClusterSet
	prePivot bool // Algorithm 3 (true) vs Algorithm 2 (false) steps
	n        int
	nc       int
	// filled counts the clusters absorbed into the prefix; the next
	// GreenInto evaluates boundary filled (mod NC).
	filled int
	fresh  bool

	prefix UDT
	suf    []UDT // suf[j]: transposed-suffix snapshot, j = 1..NC-1

	// cond is the UDT condition estimate (log10 max|D|/min|D|) of the last
	// boundary evaluation, pending while hasCond is set: the stability
	// telemetry that shows how much dynamic range the graded decomposition
	// is absorbing. The sweeper collects it with TakeCond.
	cond    float64
	hasCond bool
}

// NewStratStack builds the suffix decompositions for the source's current
// clusters. prePivot selects the same pivoting policy as the sweeper's
// stratified refresh (Algorithm 3 vs Algorithm 2).
func NewStratStack(src *ClusterSet, prePivot bool) *StratStack {
	n := src.Cluster(0).Rows
	st := &StratStack{prePivot: prePivot, n: n}
	st.prefix = UDT{Q: mat.New(n, n), D: make([]float64, n), T: mat.New(n, n)}
	st.Retarget(src)
	return st
}

// Retarget re-sources the stack onto src — the same set after a SetK, or
// another one: a different cluster count NC (a different k over the same
// L) but the same matrix dimension — resizing the suffix snapshots and
// rebuilding them from src's current clusters. This is the resize path of
// the stability autopilot: call it only between sweeps (the prefix is
// discarded). The attached Obs collector is kept.
func (st *StratStack) Retarget(src *ClusterSet) {
	n := src.Cluster(0).Rows
	if n != st.n {
		panic(fmt.Sprintf("greens: StratStack.Retarget dimension change %d -> %d", st.n, n))
	}
	st.src = src
	if src.NC != st.nc {
		st.nc = src.NC
		st.suf = make([]UDT, st.nc)
		for j := 1; j < st.nc; j++ {
			st.suf[j] = UDT{Q: mat.New(n, n), D: make([]float64, n), T: mat.New(n, n)}
		}
	}
	st.Rebuild()
}

// Rebuild recomputes every suffix snapshot from the source's current
// clusters and resets the prefix. Called automatically when a sweep's
// prefix completes; call it manually only if clusters changed outside the
// Advance order (e.g. after loading a checkpointed field).
func (st *StratStack) Rebuild() {
	work := mat.GetScratch(st.n, st.n)
	r := mat.GetScratch(st.n, st.n)
	tNew := mat.GetScratch(st.n, st.n)
	bt := mat.GetScratch(st.n, st.n)
	defer func() {
		mat.PutScratch(work)
		mat.PutScratch(r)
		mat.PutScratch(tNew)
		mat.PutScratch(bt)
	}()
	for j := st.nc - 1; j >= 1; j-- {
		st.src.Cluster(j).TransposeInto(bt)
		u := &st.suf[j]
		if j == st.nc-1 {
			initUDT(u, bt, work, r)
		} else {
			u.Q.CopyFrom(st.suf[j+1].Q)
			copy(u.D, st.suf[j+1].D)
			u.T.CopyFrom(st.suf[j+1].T)
			extendUDT(u, bt, !st.prePivot, work, r, tNew)
		}
	}
	st.filled = 0
	st.fresh = true
}

// Advance absorbs the source's cluster filled — which the sweeper has
// just recomputed from the re-sampled field — into the prefix UDT. Exactly
// one extension step; must be called in cluster order 0, 1, ..., NC-1.
//
//qmc:hot
func (st *StratStack) Advance() {
	if st.filled >= st.nc {
		panic("greens: StratStack.Advance past the last cluster (missing GreenInto roll?)")
	}
	work := mat.GetScratch(st.n, st.n)
	r := mat.GetScratch(st.n, st.n)
	tNew := mat.GetScratch(st.n, st.n)
	defer func() {
		mat.PutScratch(work)
		mat.PutScratch(r)
		mat.PutScratch(tNew)
	}()
	b := st.src.Cluster(st.filled)
	if st.filled == 0 {
		initUDT(&st.prefix, b, work, r)
	} else {
		extendUDT(&st.prefix, b, !st.prePivot, work, r, tNew)
	}
	st.filled++
	st.fresh = false
}

// GreenInto writes the equal-time Green's function at boundary filled
// into dst (n x n).
//
// filled == 0 (only before the first Advance after construction or
// Rebuild): the full chain is stratified from scratch — this is the
// initial-refresh case and is arithmetically identical to the seed path.
// 0 < filled < NC: prefix and suffix are combined with one QR.
// filled == NC: the prefix covers the whole chain; after evaluating it
// the stack rolls over (suffix rebuild + prefix reset) for the next sweep.
func (st *StratStack) GreenInto(dst *mat.Dense) {
	switch {
	case st.filled == 0:
		if !st.fresh {
			st.Rebuild()
		}
		GreenInto(dst, st.src.Chain(0), st.prePivot)
	case st.filled == st.nc:
		st.sampleCond(st.prefix.D)
		GreenFromUDTInto(dst, &st.prefix)
		st.Rebuild()
	default:
		st.combineInto(dst, st.filled)
	}
	check.Finite("greens.StratStack.GreenInto", dst)
}

// combineInto evaluates G at boundary c from the prefix UDT and the
// transposed-suffix snapshot suf[c].
//
// With prefix = Q1 D1 T1 and suffix^T = Qs Ds Ts (so the suffix itself is
// Ts^T Ds Qs^T), the boundary chain is
//
//	P(c) = Q1 (D1 * T1 Ts^T * Ds) Qs^T.
//
// The middle matrix mixes the two gradings but is the product of two
// well-conditioned factors scaled on either side, exactly the shape the
// stratification step already handles: factor it as q d t with the same
// pivoting policy, giving P = (Q1 q) d (t Qs^T) — a single UDT for the
// whole chain, finished by the stabilized inversion.
//
//qmc:hot
func (st *StratStack) combineInto(dst *mat.Dense, c int) {
	n := st.n
	suf := &st.suf[c]
	m := mat.GetScratch(n, n)
	r := mat.GetScratch(n, n)
	tmp := mat.GetScratch(n, n)
	that := mat.GetScratch(n, n)
	defer func() {
		mat.PutScratch(m)
		mat.PutScratch(r)
		mat.PutScratch(tmp)
		mat.PutScratch(that)
	}()

	// M = D1 * (T1 Ts^T) * Ds.
	blas.Gemm(false, true, 1, st.prefix.T, suf.T, 0, m)
	m.ScaleRows(st.prefix.D)
	m.ScaleCols(suf.D)

	dv := mat.GetScratch(n, 1)
	d := dv.Data
	qmid := tmp // the pre-pivot gather scratch, free again for Q
	perm := gradedQR(m, tmp, r, qmid, d, !st.prePivot)
	// that = (d^{-1} R) P^T: scatter column j back to original position.
	for j, p := range perm {
		copy(that.Col(p), r.Col(j))
	}
	lapack.PutPivot(&perm)

	// Q_new = Q1 * q, T_new = that * Qs^T.
	qNew := mat.GetScratch(n, n)
	tNew := mat.GetScratch(n, n)
	blas.Gemm(false, false, 1, st.prefix.Q, qmid, 0, qNew)
	blas.Gemm(false, true, 1, that, suf.Q, 0, tNew)
	u := UDT{Q: qNew, D: d, T: tNew}
	st.sampleCond(d)
	GreenFromUDTInto(dst, &u)
	mat.PutScratch(qNew)
	mat.PutScratch(tNew)
	mat.PutScratch(dv)
}

// TakeCond returns the condition estimate log10(max|D|/min|D|) of the
// decomposition behind the last GreenInto and clears it. ok is false when
// that evaluation left none: the initial from-scratch stratification, or a
// D with a zero. Two spin sectors evaluate concurrently, so the sweeper
// takes both estimates after the join and reports them in a fixed order.
func (st *StratStack) TakeCond() (log10Cond float64, ok bool) {
	log10Cond, ok = st.cond, st.hasCond
	st.cond, st.hasCond = 0, false
	return log10Cond, ok
}

// sampleCond records the condition estimate of a completed whole-chain
// decomposition for TakeCond. D is sorted by descending magnitude by
// construction, but scan defensively.
func (st *StratStack) sampleCond(d []float64) {
	if len(d) == 0 {
		return
	}
	lo, hi := math.Abs(d[0]), math.Abs(d[0])
	for _, v := range d[1:] {
		a := math.Abs(v)
		if a > hi {
			hi = a
		}
		if a < lo {
			lo = a
		}
	}
	if lo == 0 || hi == 0 {
		return
	}
	st.cond, st.hasCond = math.Log10(hi/lo), true
}
