package gpu

import (
	"questgo/internal/hubbard"
	"questgo/internal/mat"
	"questgo/internal/update"
)

// backend is the device implementation of update.Backend: one spin sector's
// three level-3 kernels on the simulated accelerators — matrix clustering
// (Algorithm 4/5), wrapping (Algorithm 6/7) and the delayed-update flush
// GEMM — while update.Sweeper keeps the cluster products, the
// stratification and the latency-bound per-site bookkeeping on the host,
// exactly as the paper's hybrid design prescribes.
//
// It owns one lane per device of the sector's scheduler pool: an
// Accelerator (device scratch is never shared between the concurrently
// running spins), a flush stream beside it and the flush operands. With one
// device in the group both spins hold a lane — three streams a sector, none
// shared — on the same card. With more, the Scheduler splits the devices
// between the spin sectors (per-spin sharding) and each sector deals its
// cluster blocks round-robin over its pool (per-slice-block sharding):
// block c is built on device c mod pool size, and the wraps and flushes of
// a slice run on the device that built its block. Because every device
// executes the identical host arithmetic, the Markov chain is bitwise
// independent of the device count and of command-graph mode — sharding and
// graphs move modeled time, never numbers — and bitwise equal to the host
// backend's, which the tests verify.
type backend struct {
	lanes []lane
	k     int // block size of the latest Cluster call: slice s is in block s/k
}

// lane is one device's share of a sector: the accelerator, the stream its
// flushes issue on and the device-resident flush operands, allocated once —
// the device footprint is steady across sweeps.
type lane struct {
	acc        *Accelerator
	fl         *Stream
	dg, du, dw *Matrix
}

// NewBackend returns the update.NewBackend that places each spin sector on
// its share of g's devices. graphs captures the wrap and cluster launch
// sequences into device command graphs and replays them for a single launch
// overhead per call — purely a modeled-time optimization.
func NewBackend(g *Group, graphs bool) update.NewBackend {
	return func(p *hubbard.Propagator, sigma hubbard.Spin, nd int) update.Backend {
		n := p.Model.N()
		b := &backend{}
		for _, dev := range (Scheduler{G: g}).SpinPool(sigma) {
			acc := NewAccelerator(dev, p)
			acc.EnableGraphs(graphs)
			b.lanes = append(b.lanes, lane{acc: acc, fl: dev.NewStream(),
				dg: dev.Malloc(n, n), du: dev.Malloc(n, nd), dw: dev.Malloc(n, nd)})
		}
		return b
	}
}

// owner returns the lane whose device built slice s's cluster block.
func (b *backend) owner(s int) *lane { return &b.lanes[(s/b.k)%len(b.lanes)] }

// Cluster builds the block on its round-robin owner (re-capturing the
// device's cluster graph when k changed) and remembers k for owner.
func (b *backend) Cluster(dst *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, base, k int) {
	b.k = k
	b.owner(base).acc.Cluster(dst, f, sigma, base, k)
}

func (b *backend) Wrap(g *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, s int) {
	b.owner(s).acc.Wrap(g, f, sigma, s)
}

// Flush runs G += U*W^T as a *device* GEMM on the owner of slice s — on
// real hardware this is where the delayed-update trick pays off most, since
// the rank-nd updates are pure DGEMM.
func (b *backend) Flush(g, u, w *mat.Dense, m, s int) {
	n := g.Rows
	ln := b.owner(s)
	duV := ln.du.Sub(0, 0, n, m)
	dwV := ln.dw.Sub(0, 0, n, m)
	ln.fl.SetMatrix(ln.dg, g)
	ln.fl.SetMatrix(duV, u.View(0, 0, n, m))
	ln.fl.SetMatrix(dwV, w.View(0, 0, n, m))
	ln.fl.Dgemm(false, true, 1, duV, dwV, 1, ln.dg)
	ln.fl.GetMatrix(g, ln.dg)
}
