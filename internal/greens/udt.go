// Package greens evaluates the DQMC equal-time Green's function
//
//	G = (I + B_L B_{L-1} ... B_1)^{-1}
//
// with the numerically stable graded (UDT) decompositions of the paper:
// Algorithm 2, the classic Loh et al. stratification built on QR with
// column pivoting, and Algorithm 3, the paper's contribution, which
// replaces per-step pivoting by a pre-computed column-norm permutation
// followed by an ordinary blocked QR. It also implements the cost
// reductions of Section III: matrix clustering, wrapping, cluster
// recycling, and (stack.go) the amortized prefix/suffix UDT stack that
// replaces the per-boundary full-chain rebuild.
package greens

import (
	"math"

	"questgo/internal/blas"
	"questgo/internal/check"
	"questgo/internal/lapack"
	"questgo/internal/mat"
	"questgo/internal/obs"
)

// UDT is the graded decomposition Q * diag(D) * T of a long matrix product.
// Q is orthogonal, D carries the (typically enormous) dynamic range sorted
// in descending magnitude, and T is well conditioned with unit diagonal.
type UDT struct {
	Q *mat.Dense
	D []float64
	T *mat.Dense
}

// Matrix multiplies the factors back together (test/diagnostic use only —
// the whole point of the decomposition is never to form this product in
// floating point when the grading is extreme).
func (u *UDT) Matrix() *mat.Dense {
	n := u.Q.Rows
	qd := u.Q.Clone()
	qd.ScaleCols(u.D)
	out := mat.New(n, n)
	blas.Gemm(false, false, 1, qd, u.T, 0, out)
	return out
}

// scaleInvRows overwrites r with diag(d)^{-1} * r, guarding exact zeros
// (a structurally singular slice product would produce a zero pivot): their
// rows scale by the 0 GetScratch starts from. The inverse diagonal lives in
// pooled scratch — this runs in the innermost stratification loop.
func scaleInvRows(r *mat.Dense, d []float64) {
	inv := mat.GetScratch(len(d), 1)
	for i, v := range d {
		if v != 0 {
			inv.Data[i] = 1 / v
		}
	}
	r.ScaleRows(inv.Data)
	mat.PutScratch(inv)
}

// permuteColsGather writes dst[:, j] = src[:, perm[j]].
func permuteColsGather(dst, src *mat.Dense, perm []int) {
	for j, p := range perm {
		copy(dst.Col(j), src.Col(p))
	}
}

// permuteRowsGather writes dst[j, :] = src[perm[j], :] (this is P^T * src
// when src*P gathers columns by perm).
func permuteRowsGather(dst, src *mat.Dense, perm []int) {
	for j := 0; j < src.Cols; j++ {
		s := src.Col(j)
		d := dst.Col(j)
		for i, p := range perm {
			d[i] = s[p]
		}
	}
}

// StratifyQRP runs Algorithm 2 on the matrices bs, given in application
// order (bs[0] is applied first, i.e. the product is
// bs[len-1] * ... * bs[1] * bs[0]), and returns its UDT decomposition.
// Every step uses the QR factorization with column pivoting — since the
// level-3 rewrite of lapack.QRPFactor this path rides the blocked panel
// factorization too, so choosing Algorithm 2 no longer forfeits the packed
// GEMM throughput.
func StratifyQRP(bs []*mat.Dense) *UDT {
	return stratify(bs, true)
}

// StratifyPrePivot runs Algorithm 3: the first factorization still pivots
// (there is no grading to exploit yet), every subsequent step sorts the
// columns of C_i by descending norm up front and then runs the ordinary
// blocked QR. This removes the level-2 pivoting bottleneck while the
// progressive grading keeps the decomposition stable.
func StratifyPrePivot(bs []*mat.Dense) *UDT {
	return stratify(bs, false)
}

// gradedQR is the factorization every cluster-UDT step shares. It factors
// work (overwritten) as work * P = Q R under the step's pivot policy — QR
// with column pivoting (Algorithm 2, and the first step of every chain), or
// Algorithm 3's descending-column-norm pre-pivot followed by the ordinary
// blocked QR, with tmp as the n x n gather scratch — and leaves
// d = diag(R), r = D^{-1} R and q = Q (q may be tmp). The returned
// permutation places column j of r at original column perm[j]; the caller
// applies it to its T factor and hands it back with lapack.PutPivot.
//
//qmc:hot
func gradedQR(work, tmp, r, q *mat.Dense, d []float64, pivot bool) []int {
	var qr *lapack.QR
	var perm []int
	if pivot {
		qr, perm = lapack.QRPFactor(work)
	} else {
		perm = descendingNormPerm(work)
		permuteColsGather(tmp, work, perm)
		work.CopyFrom(tmp)
		qr = lapack.QRFactor(work)
	}
	qr.RInto(r)
	r.Diagonal(d)
	scaleInvRows(r, d)
	qr.FormQ(q)
	qr.Release()
	obs.Add(obs.OpUDTSteps, 1)
	return perm
}

// initUDT seeds u with the decomposition of a single matrix b:
// B = Q R P^T with column pivoting (there is no grading to exploit yet, so
// Algorithm 2 and 3 share this step); D = diag(R), T = D^{-1} R P^T.
// work and r are n x n scratch (work is overwritten by the factorization).
//
//qmc:hot
func initUDT(u *UDT, b *mat.Dense, work, r *mat.Dense) {
	work.CopyFrom(b)
	jpvt := gradedQR(work, nil, r, u.Q, u.D, true)
	// T = (D^{-1} R) P^T: column j of D^{-1}R came from original column
	// jpvt[j], so scatter it back there. Every column is written, so a
	// dirty T buffer is fine.
	for j, p := range jpvt {
		copy(u.T.Col(p), r.Col(j))
	}
	lapack.PutPivot(&jpvt)
}

// extendUDT absorbs one more matrix into the decomposition from the left:
// u <- UDT of (b * Q D T). This is the per-cluster step 3 of the
// stratification algorithms; pivotEveryStep selects Algorithm 2 (QRP) vs
// Algorithm 3 (descending-norm pre-pivot + blocked QR). work, r and tNew
// are n x n scratch.
//
//qmc:hot
func extendUDT(u *UDT, b *mat.Dense, pivotEveryStep bool, work, r, tNew *mat.Dense) {
	// Step 3a: C = (B Q) D. The parenthesization is essential: B * Q is a
	// product of well-scaled matrices, and the graded D enters only as a
	// final column scaling.
	blas.Gemm(false, false, 1, b, u.Q, 0, work)
	work.ScaleCols(u.D)
	// Step 3b (tNew doubles as the pre-pivot gather scratch).
	perm := gradedQR(work, tNew, r, u.Q, u.D, pivotEveryStep)
	// Step 3c/3d: T = (D^{-1} R) (P^T T_prev).
	permuteRowsGather(tNew, u.T, perm)
	blas.Gemm(false, false, 1, r, tNew, 0, u.T)
	lapack.PutPivot(&perm)
}

// stratifyInto runs the full chain through u, whose Q/D/T must be
// preallocated n x n / n; every temporary comes from the scratch pool.
//
//qmc:hot
func stratifyInto(u *UDT, bs []*mat.Dense, pivotEveryStep bool) {
	if len(bs) == 0 {
		panic("greens: empty matrix chain")
	}
	n := bs[0].Rows
	work := mat.GetScratch(n, n)
	r := mat.GetScratch(n, n)
	tNew := mat.GetScratch(n, n)
	defer func() {
		mat.PutScratch(work)
		mat.PutScratch(r)
		mat.PutScratch(tNew)
	}()
	initUDT(u, bs[0], work, r)
	for i := 1; i < len(bs); i++ {
		extendUDT(u, bs[i], pivotEveryStep, work, r, tNew)
	}
}

func stratify(bs []*mat.Dense, pivotEveryStep bool) *UDT {
	if len(bs) == 0 {
		panic("greens: empty matrix chain")
	}
	n := bs[0].Rows
	// Q, D, T escape in the returned UDT.
	u := &UDT{Q: mat.New(n, n), D: make([]float64, n), T: mat.New(n, n)}
	stratifyInto(u, bs, pivotEveryStep)
	return u
}

// descendingNormPerm returns the permutation that sorts the columns of c by
// descending Euclidean norm. The norms are computed in parallel — the paper
// notes the BLAS-level loop has too little work per column and implements
// exactly this multicore reduction in OpenMP. The returned slice comes from
// lapack's pivot pool; release it with lapack.PutPivot when done.
func descendingNormPerm(c *mat.Dense) []int {
	norms := mat.GetScratch(c.Cols, 1)
	lapack.ColumnNorms(c, norms.Data)
	perm := lapack.GetPivot(c.Cols)
	for i := range perm {
		perm[i] = i
	}
	sortByNormDesc(perm, norms.Data)
	mat.PutScratch(norms)
	return perm
}

// sortByNormDesc stably sorts perm by descending norms[perm[i]] (ties keep
// their order) — the permutation sort.SliceStable returns, by binary
// insertion in place: this runs once per pre-pivoted UDT step and the
// library sort costs three allocations a call. Graded columns arrive nearly
// sorted, where an insertion moves next to nothing.
//
//qmc:hot
func sortByNormDesc(perm []int, norms []float64) {
	for i := 1; i < len(perm); i++ {
		p := perm[i]
		// First slot whose norm is strictly smaller than p's.
		lo, hi := 0, i
		for lo < hi {
			if mid := (lo + hi) / 2; norms[perm[mid]] < norms[p] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		copy(perm[lo+1:i+1], perm[lo:i])
		perm[lo] = p
	}
}

// GreenFromUDTInto forms G = (I + Q D T)^{-1} into dst through the
// stabilized final step of the stratification algorithms. Writing
// D = D_b^{-1} D_s with
//
//	D_b(i) = 1/|D(i)| if |D(i)| > 1, else 1   (inverse "big" part)
//	D_s(i) = sgn(D(i)) if |D(i)| > 1, else D(i) ("small" part)
//
// gives I + Q D T = Q D_b^{-1} (D_b Q^T + D_s T), hence
//
//	G = (D_b Q^T + D_s T)^{-1} D_b Q^T,
//
// a solve whose matrix mixes only O(1)-sized entries. This is algebraically
// the paper's step 4 in the form of Bai, Lee, Li and Xu (2010).
func GreenFromUDTInto(dst *mat.Dense, u *UDT) {
	n := u.Q.Rows
	dbs := mat.GetScratch(n, 2)
	db, ds := dbs.Data[:n], dbs.Data[n:]
	for i, v := range u.D {
		if a := math.Abs(v); a > 1 {
			db[i] = 1 / a
			ds[i] = math.Copysign(1, v)
		} else {
			db[i] = 1
			ds[i] = v
		}
	}
	// M = D_b Q^T + D_s T, RHS = D_b Q^T.
	qt := mat.GetScratch(n, n)
	u.Q.TransposeInto(qt)
	qt.ScaleRows(db)
	m := mat.GetScratch(n, n)
	m.CopyFrom(u.T)
	m.ScaleRows(ds)
	m.Add(1, qt)
	dst.CopyFrom(qt)
	lu, err := lapack.LUFactor(m)
	if err != nil {
		// A singular M means the configuration has a genuinely singular
		// I + B...B; propagate NaNs rather than abort, matching LAPACK
		// behaviour. (Never observed for physical parameters.)
		_ = err
	}
	lu.Solve(dst)
	lu.Release()
	mat.PutScratch(qt)
	mat.PutScratch(m)
	mat.PutScratch(dbs)
}

// GreenFromUDT is GreenFromUDTInto with a freshly allocated result.
func GreenFromUDT(u *UDT) *mat.Dense {
	g := mat.New(u.Q.Rows, u.Q.Rows)
	GreenFromUDTInto(g, u)
	return g
}

// Green evaluates G = (I + bs[last] ... bs[0])^{-1} with Algorithm 3
// (the production path). Use GreenQRP for the Algorithm 2 reference.
func Green(bs []*mat.Dense) *mat.Dense { return GreenFromUDT(StratifyPrePivot(bs)) }

// GreenInto is Green writing into dst, with the intermediate UDT factors
// drawn from the scratch pool (nothing escapes).
func GreenInto(dst *mat.Dense, bs []*mat.Dense, prePivot bool) {
	n := bs[0].Rows
	q := mat.GetScratch(n, n)
	t := mat.GetScratch(n, n)
	d := mat.GetScratch(n, 1)
	u := &UDT{Q: q, D: d.Data, T: t}
	stratifyInto(u, bs, !prePivot)
	GreenFromUDTInto(dst, u)
	check.Finite("greens.GreenInto", dst)
	mat.PutScratch(q)
	mat.PutScratch(t)
	mat.PutScratch(d)
}

// GreenQRP evaluates the same Green's function with Algorithm 2.
func GreenQRP(bs []*mat.Dense) *mat.Dense { return GreenFromUDT(StratifyQRP(bs)) }

// GreenNaive forms the product and inverts I + P directly, with no
// stratification. It is the obvious algorithm that loses all accuracy at
// large beta*U — kept as the contrast case for tests and documentation.
func GreenNaive(bs []*mat.Dense) *mat.Dense {
	n := bs[0].Rows
	p := bs[0].Clone()
	tmp := mat.New(n, n)
	for i := 1; i < len(bs); i++ {
		blas.Gemm(false, false, 1, bs[i], p, 0, tmp)
		p, tmp = tmp, p
	}
	for i := 0; i < n; i++ {
		p.Set(i, i, p.At(i, i)+1)
	}
	g := mat.New(n, n)
	lu, _ := lapack.LUFactor(p)
	lu.Invert(g)
	return g
}
