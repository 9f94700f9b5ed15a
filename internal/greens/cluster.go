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

// GreenAt evaluates the stratified Green's function after cluster c with
// Algorithm 3 (prePivot=true is the production path; false selects the
// Algorithm 2 reference).
func (cs *ClusterSet) GreenAt(c int, prePivot bool) *mat.Dense {
	chain := cs.Chain(c)
	if prePivot {
		return Green(chain)
	}
	return GreenQRP(chain)
}

// Wrapper is the host's pair of level-3 sweep kernels over one propagator
// and one set of scratch — the block product (Cluster) and the wrap — with
// the shapes of the device's (gpu.Accelerator). The wrap advances an
// equal-time Green's function from slice l-1 to l:
//
//	G_l = B_l G_{l-1} B_l^{-1}
//	    = V_l Bkin G Bkin^{-1} V_l^{-1}
//
// (Section III-B1). The two GEMMs dominate; the diagonal scalings are the
// fine-grained operations the paper parallelizes by hand (and offloads in
// its Algorithm 6/7 GPU variant).
type Wrapper struct {
	prop *hubbard.Propagator
	tmp  *mat.Dense
	v    []float64
}

// NewWrapper allocates the scratch for N x N wrapping.
func NewWrapper(p *hubbard.Propagator) *Wrapper {
	n := p.Model.N()
	return &Wrapper{prop: p, tmp: mat.New(n, n), v: make([]float64, n)}
}

// Cluster is the host BlockFunc: dst = B_{base+k-1} ... B_{base}, built by
// alternating GEMMs with the fixed kinetic propagator and diagonal row
// scalings (the CPU analogue of the paper's Algorithm 4). The product
// ping-pongs between dst and the wrapper's scratch, starting on whichever
// side makes it land in dst.
func (w *Wrapper) Cluster(dst *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, base, k int) {
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
		blas.Gemm(false, false, 1, w.prop.Bkin, a, 0, spare)
		w.prop.VDiag(sigma, f, base+j, w.v)
		spare.ScaleRows(w.v)
		a, spare = spare, a
	}
}

// Wrap overwrites g with B_l G B_l^{-1} for the given slice and spin.
//
//qmc:hot
func (w *Wrapper) Wrap(g *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, l int) {
	obs.Add(obs.OpWraps, 1)
	// tmp = Bkin * G
	blas.Gemm(false, false, 1, w.prop.Bkin, g, 0, w.tmp)
	// g = tmp * Binv
	blas.Gemm(false, false, 1, w.tmp, w.prop.Binv, 0, g)
	// g = V_l g V_l^{-1}: row scale by v, column scale by 1/v.
	w.prop.VDiag(sigma, f, l, w.v)
	g.ScaleRows(w.v)
	for i := range w.v {
		w.v[i] = 1 / w.v[i]
	}
	g.ScaleCols(w.v)
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
