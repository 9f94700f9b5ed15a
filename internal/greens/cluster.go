package greens

import (
	"fmt"
	"questgo/internal/blas"
	"questgo/internal/hubbard"
	"questgo/internal/mat"
	"questgo/internal/obs"
)

// BlockFunc multiplies one cluster block from the current field,
//
//	dst = B_{base+k-1} ... B_{base+1} B_{base}   (0-based slices),
//
// for one spin species. (*Wrapper).Cluster is the host product; a device
// engine's cluster kernel has the same shape.
type BlockFunc func(dst *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, base, k int)

// ClusterSet stores the products of k consecutive B matrices,
//
//	Bhat_c = B_{ck+k} * ... * B_{ck+2} * B_{ck+1}   (1-based slice labels),
//
// so the stratification loop runs over L/k clusters instead of L slices
// (Section III-A2), and so unchanged clusters can be *recycled* across
// Green's function recomputations and across sweeps (Section III-B2): when
// only the slices of cluster c were re-sampled, only Bhat_c is rebuilt.
// It is the one owner of cluster storage and chain order whatever engine
// multiplies the blocks.
type ClusterSet struct {
	K        int // slices per cluster
	NC       int // number of clusters = L/K
	sigma    hubbard.Spin
	prop     *hubbard.Propagator
	build    BlockFunc
	clusters []*mat.Dense
	chain    []*mat.Dense // reused by Chain (rebuilt on every call)
}

// NewClusterSet builds all cluster products for one spin species with the
// host block product. L must be divisible by k.
func NewClusterSet(p *hubbard.Propagator, f *hubbard.Field, sigma hubbard.Spin, k int) *ClusterSet {
	return NewClusterSetWith(p, f, sigma, k, NewWrapper(p).Cluster)
}

// NewClusterSetWith is NewClusterSet with the blocks multiplied by build
// (a device's cluster kernel, say).
func NewClusterSetWith(p *hubbard.Propagator, f *hubbard.Field, sigma hubbard.Spin, k int, build BlockFunc) *ClusterSet {
	cs := &ClusterSet{sigma: sigma, prop: p, build: build}
	cs.SetK(f, k)
	return cs
}

// SetK rebuilds every block at cluster size k, which must divide L.
func (cs *ClusterSet) SetK(f *hubbard.Field, k int) {
	l := cs.prop.Model.L
	if k < 1 || l%k != 0 {
		panic(fmt.Sprintf("greens: cluster size %d must divide the slice count %d", k, l))
	}
	n := cs.prop.Model.N()
	cs.K, cs.NC = k, l/k
	cs.clusters = make([]*mat.Dense, cs.NC)
	cs.chain = make([]*mat.Dense, cs.NC)
	for c := range cs.clusters {
		cs.clusters[c] = mat.New(n, n)
		cs.Recompute(f, c)
	}
}

// Recompute rebuilds cluster c from the current field (the paper's
// Algorithm 4 when the builder is a device's).
func (cs *ClusterSet) Recompute(f *hubbard.Field, c int) {
	cs.build(cs.clusters[c], f, cs.sigma, c*cs.K, cs.K)
}

// Cluster returns the stored product for cluster c (do not modify).
func (cs *ClusterSet) Cluster(c int) *mat.Dense { return cs.clusters[c] }

// Chain returns the cluster matrices in the application order that makes
//
//	G_l = (I + Bhat_c ... Bhat_1 Bhat_NC ... Bhat_{c+1})^{-1}
//
// for l = c*K, i.e. the Green's function seen after sweeping the first c
// clusters (c = 0 gives the standard G = (I + Bhat_NC ... Bhat_1)^{-1}).
// The returned slice is owned by the ClusterSet and overwritten by the next
// Chain call; the matrices are shared.
func (cs *ClusterSet) Chain(c int) []*mat.Dense {
	for i := 0; i < cs.NC; i++ {
		cs.chain[i] = cs.clusters[(c+i)%cs.NC]
	}
	return cs.chain
}

// Wrapper is the host's pair of level-3 sweep kernels over one propagator
// and one set of scratch — the block product (Cluster) and the wrap — with
// the shapes of the device's (gpu.Accelerator). The wrap advances an
// equal-time Green's function from slice l-1 to l:
//
//	G_l = B_l G_{l-1} B_l^{-1}
//	    = V_l Bkin G Bkin^{-1} V_l^{-1}
//
// (Section III-B1). The kinetic products dominate. Up to sepMinN sites they
// are dense GEMMs against the propagator's packed Bkin and Binv
// (blas.GemmPacked), the paper's Algorithms 4-7 and what the device runs.
// From sepMinN sites up, on a lattice whose propagator carries Kronecker
// factors (hubbard.Separable), they are four small contractions each,
// 2N²(Nx + Ny) flops instead of 2N³, equal to the dense product up to
// rounding. Either way the diagonal scalings — the fine-grained operations
// the paper parallelizes by hand and offloads in its Algorithm 6/7 GPU
// variant — ride in the last GEMM's write-back instead of separate passes
// over the result.
type Wrapper struct {
	prop    *hubbard.Propagator
	sep     *hubbard.Separable // nil: the dense products
	tmp     *mat.Dense
	v, vinv []float64
}

// sepMinN is the lattice size from which the host wrap and block product
// apply the kinetic propagator by its Kronecker factors (hubbard.Separable).
// Below it the factored products' inner dimension, Nx or Ny, is too short
// for the GEMM micro-kernel: per-call packing, write-back and partial tiles
// cost back the flops saved. BenchmarkWrapSeparable times the wrap and a
// k = 10 block product both ways at N = 36, 64, 100, 144 and 256
// (EXPERIMENTS.md, "the separable kinetic propagator"). The separable wrap
// loses at 6x6, comes within about 10% of the dense one at 8x8 and 10x10
// (where Nx = 10 fills an 8-wide tile and a 2-wide one), and wins 1.6-1.9x
// from 12x12; the block product wins from 8x8. A sweep wraps L times per NC
// block products, so the wrap sets the gate: the constant only has to lie
// in (100, 144], and no workload or golden lattice runs between them.
// Lowering it to 64 would move the 8x8 bits for at most a tenth of the
// wrap. The gate looks at N alone, so an unbenchmarked shape above it with
// a short side (say 2x72) takes the factored path at whatever its tiles
// give.
const sepMinN = 144

// NewWrapper allocates the scratch for N x N wrapping.
func NewWrapper(p *hubbard.Propagator) *Wrapper {
	n := p.Model.N()
	w := &Wrapper{prop: p, tmp: mat.New(n, n), v: make([]float64, n), vinv: make([]float64, n)}
	if n >= sepMinN {
		w.sep = p.Sep
	}
	return w
}

// Cluster is the host BlockFunc: dst = B_{base+k-1} ... B_{base}, built by
// alternating kinetic products with diagonal row scalings (the CPU analogue
// of the paper's Algorithm 4). The dense product ping-pongs between dst and
// the wrapper's scratch, starting on whichever side makes it land in dst.
// The separable one builds the transpose by right products instead, which
// need no index shuffle (Bkin is symmetric),
//
//	A^T = Bkin V_{base} · Bkin V_{base+1} ⋯ Bkin V_{base+k-1},
//
// in the scratch and transposes it into dst once; dst must then be a whole
// matrix (Stride == N), as the ClusterSet's are.
func (w *Wrapper) Cluster(dst *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, base, k int) {
	if w.sep != nil {
		w.clusterSep(dst, f, sigma, base, k)
		return
	}
	a, spare := dst, w.tmp
	if k%2 == 0 {
		a, spare = spare, a
	}
	// A = V_{base} * Bkin
	a.CopyFrom(w.prop.Bkin)
	w.prop.VDiag(sigma, f, base, w.v)
	a.ScaleRows(w.v)
	for j := 1; j < k; j++ {
		// A = V_{base+j} * (Bkin * A)
		w.prop.VDiag(sigma, f, base+j, w.v)
		blas.GemmPacked(w.prop.BkinA, a, w.v, nil, spare)
		a, spare = spare, a
	}
}

// clusterSep is Cluster's separable product (see Cluster).
//
//qmc:hot
func (w *Wrapper) clusterSep(dst *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, base, k int) {
	sp, at := w.sep, w.tmp
	// A^T = Bkin V_{base}
	at.CopyFrom(w.prop.Bkin)
	w.prop.VDiag(sigma, f, base, w.v)
	at.ScaleCols(w.v)
	for j := 1; j < k; j++ {
		// A^T = (A^T Bkin) V_{base+j}, e^{dtau mu} folded into the scaling
		w.prop.VDiag(sigma, f, base+j, w.v)
		for i, v := range w.v {
			w.v[i] = sp.Emu * v
		}
		kronRight(sp.Nx, sp.EyB, sp.ExB, at, dst, at, nil, w.v)
	}
	at.TransposeInto(dst)
}

// Wrap overwrites g with B_l G B_l^{-1} for the given slice and spin. On
// the separable path g must be a whole matrix (Stride == N), as every
// caller's is.
//
//qmc:hot
func (w *Wrapper) Wrap(g *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, l int) {
	obs.Add(obs.OpWraps, 1)
	w.prop.VDiag(sigma, f, l, w.v)
	for i, v := range w.v {
		w.vinv[i] = 1 / v
	}
	if sp := w.sep; sp != nil {
		// g = V_l (E_y ⊗ E_x) G (E_y^{-1} ⊗ E_x^{-1}) V_l^{-1}: the
		// e^{±dtau mu} of Bkin and Binv cancel exactly.
		kronLeft(sp, g, w.tmp, g)
		kronRight(sp.Nx, sp.EyInvB, sp.ExInvB, g, w.tmp, g, w.v, w.vinv)
		return
	}
	// tmp = Bkin * G
	blas.GemmPacked(w.prop.BkinA, g, nil, nil, w.tmp)
	// g = V_l (tmp * Binv) V_l^{-1}
	blas.GemmPacked(w.prop.BinvB, w.tmp, w.v, w.vinv, g)
}

// kronLeft sets out = (E_y ⊗ E_x)·x through tmp. x, tmp and out are N x N
// with a tight stride, tmp distinct from both; out may be x. Column j of x,
// read as the Nx x Ny matrix X_j (sites x-fastest), becomes E_x X_j E_y:
//
//   - left x: E_x times x as one Nx x (Ny·N) matrix, into tmp;
//   - left y: every Nx x Ny block of that matrix times E_y (symmetric, so
//     E_y^T), one strided batch, into out.
//
//qmc:hot
func kronLeft(sp *hubbard.Separable, x, tmp, out *mat.Dense) {
	n := x.Rows
	xv, tv, ov := reshape(x, sp.Nx, sp.Ny*n), reshape(tmp, sp.Nx, sp.Ny*n), reshape(out, sp.Nx, sp.Ny*n)
	blas.GemmPacked(sp.ExA, &xv, nil, nil, &tv)
	blas.GemmBlockDiag(sp.EyB, &tv, nil, nil, &ov)
}

// kronRight sets out = diag(r)·x·(F_y ⊗ F_x)·diag(s) through tmp, the
// factors given as the PackB operands fy (Ny x Ny) and fx (nx x nx), with
// the shapes and aliasing of kronLeft; r and s may be nil (no scaling).
// Column (x', y') of the result sums x's columns (x, y) with weight
// F_y(y, y') F_x(x, x'):
//
//   - right y: x as one (N·nx) x Ny matrix times F_y, into tmp;
//   - right x: each N x nx column block of tmp times F_x, one strided batch
//     with the scalings in its write-back, into out.
//
//qmc:hot
func kronRight(nx int, fy, fx *blas.Packed, x, tmp, out *mat.Dense, r, s []float64) {
	n := x.Rows
	xv, tv := reshape(x, n*nx, n/nx), reshape(tmp, n*nx, n/nx)
	blas.GemmPacked(fy, &xv, nil, nil, &tv)
	blas.GemmBlockDiag(fx, tmp, r, s, out)
}

// reshape views m's storage, which must have a tight stride, as a
// rows x cols column-major matrix.
func reshape(m *mat.Dense, rows, cols int) mat.Dense {
	if m.Stride != m.Rows || rows*cols != m.Rows*m.Cols {
		panic(fmt.Sprintf("greens: cannot view a %dx%d matrix of stride %d as %dx%d", m.Rows, m.Cols, m.Stride, rows, cols))
	}
	return mat.Dense{Rows: rows, Cols: cols, Stride: rows, Data: m.Data[:rows*cols]}
}

// WrapInverse undoes Wrap: g <- B_l^{-1} G B_l, used by tests to verify the
// wrapping identity.
func (w *Wrapper) WrapInverse(g *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, l int) {
	w.prop.VDiag(sigma, f, l, w.v)
	for i := range w.v {
		w.v[i] = 1 / w.v[i]
	}
	g.ScaleRows(w.v)
	for i := range w.v {
		w.v[i] = 1 / w.v[i]
	}
	g.ScaleCols(w.v)
	blas.Gemm(false, false, 1, w.prop.Binv, g, 0, w.tmp)
	blas.Gemm(false, false, 1, w.tmp, w.prop.Bkin, 0, g)
}
