// Package gpu is the engine that offloads a sweep's level-3 work to the
// simulated accelerators of internal/gpu/hw, for the paper's Section VI
// experiments: one device's implementation of the three kernels a sweep
// offloads (Accelerator: Cluster, Wrap, Flush) and the router that shards a
// spin sector's blocks over a Group of devices (NewBackend).
//
// The paper offloads matrix clustering (Algorithms 4/5) and Green's
// function wrapping (Algorithms 6/7) to an Nvidia Tesla C2050 through
// CUBLAS and hand-written CUDA kernels. The modeled clock reproduces its
// Figure 9/10 phenomena: clustering amortizes one transfer over k GEMMs and
// approaches device GEMM throughput, wrapping pays a full Green's function
// round trip for two GEMMs and saturates lower, and both improve with
// matrix dimension. Stratification stays on the host, as in the paper.
//
// hw is the hardware, this package is the engine: it issues work only
// through hw's exported Stream and Graph methods, so it cannot advance a
// device clock except by an event-ordered stream operation.
package gpu

import (
	"questgo/internal/gpu/hw"
	"questgo/internal/hubbard"
	"questgo/internal/mat"
	"questgo/internal/obs"
)

// Accelerator is one device's implementation of the three level-3 kernels
// of a sweep (update.Backend) for one spin sector: matrix clustering
// (Algorithm 4/5), wrapping (Algorithm 6/7) and the delayed-update flush
// GEMM. It owns the device-resident state of the offload session: the fixed
// kinetic propagators B and B^{-1} are uploaded once at the start of the
// simulation (the paper notes this amortization explicitly), and scratch
// and flush operands are allocated once and reused across calls, so the
// device footprint is steady across sweeps.
//
// Cluster and Wrap issue on two streams — a compute stream for the GEMMs
// and scaling kernels and a copy stream for host<->device traffic — with
// Event dependencies expressing the real dataflow, so the modeled clock
// overlaps the next diagonal upload with the current GEMM (double-buffered
// V vectors, the cp.async pipeline idiom); Flush issues on a third stream
// of its own. With graphs on, each Wrap and Cluster call is one command
// graph launch over the copy and compute streams: the same ops run in the
// same order, and only the launch overhead moves, from one per kernel and
// transfer to one per call.
type Accelerator struct {
	Dev  *hw.Device
	prop *hubbard.Propagator

	comp, xfer, fl *hw.Stream

	bKin, bInv *hw.Matrix
	t, a, g    *hw.Matrix    // scratch
	v          [2]*hw.Matrix // double-buffered diagonal vectors
	hostV      [2][]float64
	dg, du, dw *hw.Matrix // flush operands: G and the N x nd accumulators

	gUp, compDone *hw.Event
	up, consumed  [2]*hw.Event

	graph *hw.Graph // nil unless graphs: brackets each Wrap and Cluster call
}

// NewAccelerator uploads the kinetic propagators and allocates the scratch
// and the flush operands for delay blocks of up to nd columns. graphs
// launches each wrap and cluster call as one command graph.
func NewAccelerator(dev *hw.Device, prop *hubbard.Propagator, nd int, graphs bool) *Accelerator {
	n := prop.Model.N()
	acc := &Accelerator{
		Dev:      dev,
		prop:     prop,
		comp:     dev.NewStream(),
		xfer:     dev.NewStream(),
		fl:       dev.NewStream(),
		bKin:     dev.Malloc(n, n),
		bInv:     dev.Malloc(n, n),
		t:        dev.Malloc(n, n),
		a:        dev.Malloc(n, n),
		g:        dev.Malloc(n, n),
		dg:       dev.Malloc(n, n),
		du:       dev.Malloc(n, nd),
		dw:       dev.Malloc(n, nd),
		gUp:      hw.NewEvent(),
		compDone: hw.NewEvent(),
	}
	for i := range acc.v {
		acc.v[i] = dev.Malloc(n, 1)
		acc.hostV[i] = make([]float64, n)
		acc.up[i] = hw.NewEvent()
		acc.consumed[i] = hw.NewEvent()
	}
	if graphs {
		acc.graph = dev.NewGraph(acc.xfer, acc.comp)
	}
	acc.comp.SetMatrix(acc.bKin, prop.Bkin)
	acc.comp.SetMatrix(acc.bInv, prop.Binv)
	return acc
}

// Cluster computes the matrix cluster
//
//	A = B_{base+k-1} ... B_{base+1} B_{base}
//
// on the device (the paper's Algorithm 4, using the Algorithm 5 row-scaling
// kernel instead of per-row Dscal calls) and stores the result into dst on
// the host — a greens.BlockFunc. Only the k diagonal V_l vectors and the
// result cross the bus, and the upload of V_{l+1} overlaps the GEMM
// absorbing B_l (double buffering on the copy stream).
func (acc *Accelerator) Cluster(dst *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, base, k int) {
	if acc.graph != nil {
		acc.graph.Begin()
		defer acc.graph.End()
	}
	acc.issueCluster(dst, f, sigma, base, k)
}

// issueCluster emits the cluster pipeline on the two streams.
func (acc *Accelerator) issueCluster(dst *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, base, k int) {
	for j := 0; j < k; j++ {
		buf := j & 1
		if j >= 2 {
			// The buffer is reused from iteration j-2: its upload must not
			// start before the compute stream consumed it.
			acc.xfer.Wait(acc.consumed[buf])
		}
		acc.xfer.Host(func() { acc.prop.VDiag(sigma, f, base+j, acc.hostV[buf]) })
		acc.xfer.SetVector(acc.v[buf], acc.hostV[buf])
		acc.xfer.Record(acc.up[buf])
		acc.comp.Wait(acc.up[buf])
		if j == 0 {
			// A = V_base * B
			acc.comp.ScaleRows(acc.a, acc.bKin, acc.v[buf])
		} else {
			// T = B * A; A = V_{base+j} * T
			acc.comp.Dgemm(false, false, 1, acc.bKin, acc.a, 0, acc.t)
			acc.comp.ScaleRows(acc.a, acc.t, acc.v[buf])
		}
		acc.comp.Record(acc.consumed[buf])
	}
	acc.comp.GetMatrix(dst, acc.a)
}

// Wrap advances the equal-time Green's function G <- B_l G B_l^{-1} on the
// device (Algorithm 6, with the Algorithm 7 combined row/column scaling
// kernel): upload G, two GEMMs against the resident propagators, one
// scaling kernel, download G. The V_l diagonal upload rides the copy
// stream and overlaps the GEMMs.
//
//qmc:hot
func (acc *Accelerator) Wrap(g *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, l int) {
	obs.Add(obs.OpWraps, 1)
	if acc.graph != nil {
		acc.graph.Begin()
		defer acc.graph.End()
	}
	acc.issueWrap(g, f, sigma, l)
}

// issueWrap emits the wrap sequence on the two streams.
func (acc *Accelerator) issueWrap(g *mat.Dense, f *hubbard.Field, sigma hubbard.Spin, l int) {
	acc.xfer.SetMatrix(acc.g, g)
	acc.xfer.Record(acc.gUp)
	acc.xfer.Host(func() { acc.prop.VDiag(sigma, f, l, acc.hostV[0]) })
	acc.xfer.SetVector(acc.v[0], acc.hostV[0])
	acc.xfer.Record(acc.up[0])
	acc.comp.Wait(acc.gUp)
	acc.comp.Dgemm(false, false, 1, acc.bKin, acc.g, 0, acc.t)
	acc.comp.Dgemm(false, false, 1, acc.t, acc.bInv, 0, acc.g)
	acc.comp.Wait(acc.up[0])
	acc.comp.ScaleRowsCols(acc.g, acc.v[0])
	acc.comp.Record(acc.compDone)
	acc.xfer.Wait(acc.compDone)
	acc.xfer.GetMatrix(g, acc.g)
}

// Flush runs G += U[:, :m] * W[:, :m]^T as a device GEMM — on real hardware
// this is where the delayed-update trick pays off most, since the rank-nd
// updates are pure DGEMM. The slice index is routing information for the
// multi-device backend only.
func (acc *Accelerator) Flush(g, u, w *mat.Dense, m, _ int) {
	n := g.Rows
	duV := acc.du.Sub(0, 0, n, m)
	dwV := acc.dw.Sub(0, 0, n, m)
	acc.fl.SetMatrix(acc.dg, g)
	acc.fl.SetMatrix(duV, u.View(0, 0, n, m))
	acc.fl.SetMatrix(dwV, w.View(0, 0, n, m))
	acc.fl.Dgemm(false, true, 1, duV, dwV, 1, acc.dg)
	acc.fl.GetMatrix(g, acc.dg)
}
