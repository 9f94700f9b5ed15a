package gpu

import (
	"questgo/internal/hubbard"
	"questgo/internal/mat"
	"questgo/internal/update"
)

// backend is the device implementation of update.Backend for one spin
// sector: the round-robin router over the Accelerators of the sector's
// device pool, while update.Sweeper keeps the cluster products, the
// stratification and the latency-bound per-site bookkeeping on the host,
// exactly as the paper's hybrid design prescribes.
//
// With one device in the group both spins hold an Accelerator — three
// streams a sector, none shared, device scratch never shared between the
// concurrently running spins — on the same card. With more, spinPool splits
// the devices between the spin sectors (per-spin sharding) and each sector
// deals its cluster blocks round-robin over its pool (per-slice-block
// sharding): block c is built on device c mod pool size, and the wraps and
// flushes of a slice run on the device that built its block. Because every
// device executes the identical host arithmetic, the Markov chain is
// bitwise independent of the device count and of command-graph mode —
// sharding and graphs move modeled time, never numbers — and bitwise equal
// to the host backend's, which the tests verify.
type backend struct {
	accs []*Accelerator
	k    int // block size of the latest Cluster call: slice s is in block s/k
}

// NewBackend returns the update.NewBackend that places each spin sector on
// its share of g's devices. graphs captures the wrap and cluster launch
// sequences into device command graphs and replays them for a single launch
// overhead per call — purely a modeled-time optimization.
func NewBackend(g *Group, graphs bool) update.NewBackend {
	return func(p *hubbard.Propagator, sigma hubbard.Spin, nd int) update.Backend {
		b := &backend{}
		for _, dev := range spinPool(g, sigma) {
			b.accs = append(b.accs, NewAccelerator(dev, p, nd, graphs))
		}
		return b
	}
}

// owner returns the accelerator whose device built slice s's cluster block.
func (b *backend) owner(s int) *Accelerator { return b.accs[(s/b.k)%len(b.accs)] }

// Cluster builds the block on its round-robin owner (re-capturing the
// device's cluster graph when k changed) and remembers k for owner.
func (b *backend) Cluster(dst *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, base, k int) {
	b.k = k
	b.owner(base).Cluster(dst, f, sigma, base, k)
}

func (b *backend) Wrap(g *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, s int) {
	b.owner(s).Wrap(g, f, sigma, s)
}

func (b *backend) Flush(g, u, w *mat.Dense, m, s int) {
	b.owner(s).Flush(g, u, w, m, s)
}
