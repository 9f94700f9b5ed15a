package gpu

import (
	"questgo/internal/hubbard"
	"questgo/internal/mat"
	"questgo/internal/update"
)

// backend is the device implementation of update.Backend: one spin sector's
// level-3 phases on the simulated accelerators — wrapping (Algorithm 6/7),
// matrix clustering (Algorithm 4/5) and the delayed-update flush GEMMs —
// while update.Sweeper keeps the latency-bound per-site bookkeeping on the
// host, exactly as the paper's hybrid design prescribes.
//
// It owns one Accelerator per device of the sector's scheduler pool (device
// scratch is never shared between the concurrently running spins), the
// sharded cluster set and the per-device flush operands. With one device in
// the group both spins hold an Accelerator — two stream pairs — on the same
// card. With more, the Scheduler splits the devices between the spin
// sectors (per-spin sharding) and each sector deals its cluster blocks
// round-robin over its pool (per-slice-block sharding): the wraps and
// flushes of a slice run on the device owning its cluster block.
// Stratification never runs here — the Sweeper refreshes G on the host from
// the clusters this backend builds. Because every device executes the
// identical host arithmetic, the Markov chain is bitwise independent of the
// device count and of command-graph mode — sharding and graphs move modeled
// time, never numbers — and bitwise equal to the host backend's, which the
// tests verify.
type backend struct {
	*ClusterSet // rebuilt by SetClusterK
	field       *hubbard.Field
	sigma       hubbard.Spin
	accs        []*Accelerator
	// Device-resident flush operands, one set per accelerator, allocated
	// once — the device footprint is steady across sweeps.
	dg, du, dw []*Matrix
}

// NewBackend returns the update.NewBackend that places each spin sector on
// its share of g's devices. graphs captures the wrap and cluster launch
// sequences into device command graphs and replays them for a single launch
// overhead per call — purely a modeled-time optimization.
func NewBackend(g *Group, graphs bool) update.NewBackend {
	return func(p *hubbard.Propagator, f *hubbard.Field, sigma hubbard.Spin, k, nd int) update.Backend {
		n := p.Model.N()
		b := &backend{field: f, sigma: sigma}
		for _, dev := range (Scheduler{G: g}).SpinPool(sigma) {
			acc := NewAccelerator(dev, p)
			acc.EnableGraphs(graphs)
			b.accs = append(b.accs, acc)
			b.dg = append(b.dg, dev.Malloc(n, n))
			b.du = append(b.du, dev.Malloc(n, nd))
			b.dw = append(b.dw, dev.Malloc(n, nd))
		}
		b.ClusterSet = NewClusterSetSharded(b.accs, f, sigma, k)
		return b
	}
}

// owner indexes the accelerator owning slice s's cluster block.
func (b *backend) owner(s int) int { return (s / b.K) % len(b.accs) }

func (b *backend) Wrap(g *mat.Dense, s int) { b.accs[b.owner(s)].Wrap(g, b.field, b.sigma, s) }

func (b *backend) Recompute(c int) { b.ClusterSet.Recompute(b.field, c) }

// Flush runs G += U*W^T as a *device* GEMM on the owner of slice s — on
// real hardware this is where the delayed-update trick pays off most, since
// the rank-nd updates are pure DGEMM.
func (b *backend) Flush(g, u, w *mat.Dense, m, s int) {
	n := g.Rows
	ai := b.owner(s)
	dev := b.accs[ai].Dev
	dg := b.dg[ai]
	duV := b.du[ai].Sub(0, 0, n, m)
	dwV := b.dw[ai].Sub(0, 0, n, m)
	dev.SetMatrix(dg, g)
	dev.SetMatrix(duV, u.View(0, 0, n, m))
	dev.SetMatrix(dwV, w.View(0, 0, n, m))
	dev.Dgemm(false, true, 1, duV, dwV, 1, dg)
	dev.GetMatrix(g, dg)
}

// SetClusterK rebuilds the device cluster set — with the same sharding — on
// the sector's existing accelerators. The captured graphs are dropped: the
// recorded cluster pipeline depth no longer matches.
func (b *backend) SetClusterK(k int) {
	for _, acc := range b.accs {
		acc.InvalidateGraphs()
	}
	b.ClusterSet = NewClusterSetSharded(b.accs, b.field, b.sigma, k)
}
