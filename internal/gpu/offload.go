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
// of its own. With graphs on, the wrap and cluster launch sequences are
// captured once into command graphs and replayed for a single launch
// overhead — never changing the numbers, only whether the launch overhead
// is paid per kernel or per recorded sequence; host nodes re-read the call
// parameters (field, slice, base) on every replay and the host operand is
// rebound when the destination changes, so one recording serves the whole
// sweep.
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

	// Replay parameters: the wrap/cluster host nodes read these fields at
	// execution time, so a captured graph follows the live sweep state.
	wp struct {
		f     *hubbard.Field
		sigma hubbard.Spin
		l     int
	}
	cp struct {
		f     *hubbard.Field
		sigma hubbard.Spin
		base  int
	}
	wrapVFn func()

	graphs    bool
	wrapGraph *hw.Graph
	wrapBound *mat.Dense // host G the wrap graph transfers are bound to
	clGraph   *hw.Graph
	clK       int
	clBound   *mat.Dense // host destination the cluster graph downloads to
}

// NewAccelerator uploads the kinetic propagators and allocates the scratch
// and the flush operands for delay blocks of up to nd columns. graphs
// selects command-graph capture/replay of the wrap and cluster sequences.
func NewAccelerator(dev *hw.Device, prop *hubbard.Propagator, nd int, graphs bool) *Accelerator {
	n := prop.Model.N()
	acc := &Accelerator{
		Dev:      dev,
		prop:     prop,
		graphs:   graphs,
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
	acc.wrapVFn = func() { acc.prop.VDiag(acc.wp.sigma, acc.wp.f, acc.wp.l, acc.hostV[0]) }
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
	acc.cp.f, acc.cp.sigma, acc.cp.base = f, sigma, base
	if acc.graphs {
		if acc.clGraph == nil || acc.clK != k {
			acc.captureCluster(dst, k)
		} else if acc.clBound != dst {
			acc.clGraph.RebindHost(acc.clBound, dst)
			acc.clBound = dst
		}
		acc.clGraph.Replay()
		return
	}
	acc.issueCluster(dst, k)
}

// issueCluster emits the cluster pipeline on the two streams (directly, or
// into a capturing graph). The host VDiag nodes read acc.cp at execution
// time and each captures only its slice offset j, so a recorded graph
// re-parameterizes per replay.
func (acc *Accelerator) issueCluster(dst *mat.Dense, k int) {
	for j := 0; j < k; j++ {
		j := j
		buf := j & 1
		if j >= 2 {
			// The buffer is reused from iteration j-2: its upload must not
			// start before the compute stream consumed it.
			acc.xfer.Wait(acc.consumed[buf])
		}
		acc.xfer.Host(func() { acc.prop.VDiag(acc.cp.sigma, acc.cp.f, acc.cp.base+j, acc.hostV[buf]) })
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

// captureCluster records the k-slice cluster pipeline into a command graph
// bound to dst.
func (acc *Accelerator) captureCluster(dst *mat.Dense, k int) {
	acc.clGraph = acc.Dev.NewGraph()
	acc.clK = k
	acc.clBound = dst
	acc.clGraph.Capture(func() { acc.issueCluster(dst, k) }, acc.comp, acc.xfer)
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
	acc.wp.f, acc.wp.sigma, acc.wp.l = f, sigma, l
	if acc.graphs {
		if acc.wrapGraph == nil {
			acc.captureWrap(g)
		} else if acc.wrapBound != g {
			acc.wrapGraph.RebindHost(acc.wrapBound, g)
			acc.wrapBound = g
		}
		acc.wrapGraph.Replay()
		return
	}
	acc.issueWrap(g)
}

// issueWrap emits the wrap sequence on the two streams.
func (acc *Accelerator) issueWrap(g *mat.Dense) {
	acc.xfer.SetMatrix(acc.g, g)
	acc.xfer.Record(acc.gUp)
	acc.xfer.Host(acc.wrapVFn)
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

// captureWrap records the wrap sequence into a command graph bound to g.
func (acc *Accelerator) captureWrap(g *mat.Dense) {
	acc.wrapGraph = acc.Dev.NewGraph()
	acc.wrapBound = g
	acc.wrapGraph.Capture(func() { acc.issueWrap(g) }, acc.comp, acc.xfer)
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
