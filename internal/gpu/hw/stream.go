package hw

import (
	"fmt"
	"sync/atomic"
	"time"

	"questgo/internal/blas"
	"questgo/internal/check"
	"questgo/internal/mat"
	"questgo/internal/obs"
)

// Stream is an in-order command queue on a Device, the analogue of a CUDA
// stream. Operations issued on one stream serialize against each other;
// operations on different streams overlap in modeled time unless an Event
// dependency orders them. Data movement and arithmetic still execute
// synchronously on the host in issue order — only the *clock* is
// asynchronous — so the numerics are identical no matter how work is
// distributed over streams.
//
// A stream is the only way to issue device work: there is no default
// stream. The clock cells are atomic, so two goroutines may share one, in
// which case their ops serialize on it in arrival order.
type Stream struct {
	dev     *Device
	clockNS int64  // atomic: this stream's critical-path time
	capture *Graph // non-nil while recording into a command graph
}

// NewStream creates an independent command stream on the device.
func (d *Device) NewStream() *Stream {
	s := &Stream{dev: d}
	d.mu.Lock()
	d.streams = append(d.streams, s)
	d.mu.Unlock()
	return s
}

// Event is a cross-stream synchronization point (cudaEvent): Record stamps
// it with the recording stream's current clock, Wait holds the waiting
// stream back to at least that time.
type Event struct {
	ns int64 // atomic
}

// NewEvent returns an unrecorded event.
func NewEvent() *Event { return &Event{} }

// Record stamps e with the stream's current modeled time (or records a
// stamp node while capturing).
func (s *Stream) Record(e *Event) {
	if g := s.capture; g != nil {
		g.add(node{kind: nodeRecord, s: s, ev: e})
		return
	}
	s.runNode(node{kind: nodeRecord, s: s, ev: e}, true)
}

// Wait orders the stream after e: its clock cannot run ahead of the
// recorded stamp (cudaStreamWaitEvent).
func (s *Stream) Wait(e *Event) {
	if g := s.capture; g != nil {
		g.add(node{kind: nodeWait, s: s, ev: e})
		return
	}
	s.runNode(node{kind: nodeWait, s: s, ev: e}, true)
}

// Host enqueues a host callback (cudaLaunchHostFunc): fn runs on the CPU
// at its position in the stream, costs no modeled device time, and — when
// captured into a Graph — re-executes on every Replay, which is how
// replays re-read mutable parameters (the "operand rebinding" host half).
func (s *Stream) Host(fn func()) {
	if g := s.capture; g != nil {
		g.add(node{kind: nodeHost, s: s, fn: fn})
		return
	}
	fn()
}

// --- stream operations -------------------------------------------------

// SetMatrix copies a host matrix to the device (cublasSetMatrixAsync).
func (s *Stream) SetMatrix(dst *Matrix, src *mat.Dense) {
	s.dev.checkOwned(dst)
	if dst.rows != src.Rows || dst.cols != src.Cols {
		panic(fmt.Sprintf("hw: SetMatrix dimension mismatch: device matrix is %dx%d but host source is %dx%d", dst.rows, dst.cols, src.Rows, src.Cols))
	}
	s.dispatch(node{kind: nodeSetMatrix, s: s, c: dst, hm: src})
}

// GetMatrix copies a device matrix back to the host (cublasGetMatrixAsync).
func (s *Stream) GetMatrix(dst *mat.Dense, src *Matrix) {
	s.dev.checkOwned(src)
	if dst.Rows != src.rows || dst.Cols != src.cols {
		panic(fmt.Sprintf("hw: GetMatrix dimension mismatch: host destination is %dx%d but device matrix is %dx%d", dst.Rows, dst.Cols, src.rows, src.cols))
	}
	s.dispatch(node{kind: nodeGetMatrix, s: s, a: src, hm: dst})
}

// SetVector uploads a host vector (cublasSetVectorAsync).
func (s *Stream) SetVector(dst *Matrix, src []float64) {
	s.dev.checkOwned(dst)
	if dst.cols != 1 || dst.rows != len(src) {
		panic(fmt.Sprintf("hw: SetVector dimension mismatch: device vector is %dx%d but len(src)=%d", dst.rows, dst.cols, len(src)))
	}
	s.dispatch(node{kind: nodeSetVector, s: s, c: dst, hv: src})
}

// Dgemm computes C = alpha*op(A)*op(B) + beta*C on the device.
func (s *Stream) Dgemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	s.dev.checkOwned(a)
	s.dev.checkOwned(b)
	s.dev.checkOwned(c)
	s.dispatch(node{kind: nodeGemm, s: s, a: a, b: b, c: c,
		transA: transA, transB: transB, alpha: alpha, beta: beta})
}

// ScaleRows is the paper's Algorithm 5 CUDA kernel: dst = diag(v) * src
// with one thread per row, coalesced column-major accesses, and v cached
// per thread. One launch, bandwidth bound (read + write of the matrix).
func (s *Stream) ScaleRows(dst, src *Matrix, v *Matrix) {
	s.dev.checkOwned(dst)
	s.dev.checkOwned(src)
	s.dev.checkOwned(v)
	if v.cols != 1 || v.rows != src.rows || dst.rows != src.rows || dst.cols != src.cols {
		panic(fmt.Sprintf("hw: ScaleRows dimension mismatch: src is %dx%d, dst is %dx%d, v is %dx%d", src.rows, src.cols, dst.rows, dst.cols, v.rows, v.cols))
	}
	s.dispatch(node{kind: nodeScaleRows, s: s, a: src, b: v, c: dst})
}

// ScaleRowsCols is the paper's Algorithm 7 kernel:
// G = diag(v) * G * diag(v)^{-1}, with the column factor read through the
// texture cache. In-place, one launch.
func (s *Stream) ScaleRowsCols(g *Matrix, v *Matrix) {
	s.dev.checkOwned(g)
	s.dev.checkOwned(v)
	if v.cols != 1 || v.rows != g.rows || g.rows != g.cols {
		panic(fmt.Sprintf("hw: ScaleRowsCols dimension mismatch: g is %dx%d, v is %dx%d", g.rows, g.cols, v.rows, v.cols))
	}
	s.dispatch(node{kind: nodeScaleRowsCols, s: s, b: v, c: g})
}

// dispatch records the node while capturing, otherwise executes it
// immediately with full per-launch overhead.
func (s *Stream) dispatch(nd node) {
	if g := s.capture; g != nil {
		g.add(nd)
		return
	}
	s.runNode(nd, true)
}

// --- command nodes ------------------------------------------------------

// nodeKind enumerates the operations a stream can enqueue; command graphs
// store them as data so Replay can re-execute with rebound operands.
type nodeKind uint8

const (
	nodeSetMatrix nodeKind = iota
	nodeGetMatrix
	nodeSetVector
	nodeGemm
	nodeScaleRows
	nodeScaleRowsCols
	nodeHost
	nodeRecord
	nodeWait
)

// node is one recorded (or immediately executed) stream operation. Device
// operands sit in a/b/c (c is always the destination), host operands in
// hm/hv, and host callbacks in fn.
type node struct {
	kind           nodeKind
	s              *Stream
	a, b, c        *Matrix
	hm             *mat.Dense
	hv             []float64
	transA, transB bool
	alpha, beta    float64
	ev             *Event
	fn             func()
}

// runNode validates nothing (the public entry points already did), executes
// the node's data movement or arithmetic on the host, and charges the
// modeled clock. launch=false is the graph-replay path: the work is
// charged at full bandwidth/throughput but without the per-launch or
// per-transfer fixed overhead, which the replay pays once for the whole
// graph.
func (s *Stream) runNode(nd node, launch bool) {
	switch nd.kind {
	case nodeSetMatrix:
		nd.c.m.CopyFrom(nd.hm)
		s.chargeTransfer(int64(nd.hm.Rows)*int64(nd.hm.Cols)*8, launch)
	case nodeGetMatrix:
		nd.hm.CopyFrom(nd.a.m)
		s.chargeTransfer(int64(nd.a.rows)*int64(nd.a.cols)*8, launch)
		check.Finite("hw.GetMatrix", nd.hm)
	case nodeSetVector:
		copy(nd.c.m.Col(0), nd.hv)
		s.chargeTransfer(int64(len(nd.hv))*8, launch)
	case nodeGemm:
		stop := s.trackReal()
		blas.Gemm(nd.transA, nd.transB, nd.alpha, nd.a.m, nd.b.m, nd.beta, nd.c.m)
		stop()
		m, k := nd.a.rows, nd.a.cols
		if nd.transA {
			m, k = k, m
		}
		s.chargeKernel(blas.GemmFlops(m, nd.c.cols, k), 0, launch)
	case nodeScaleRows:
		stop := s.trackReal()
		vv := nd.b.m.Col(0)
		for j := 0; j < nd.a.cols; j++ {
			sc := nd.a.m.Col(j)
			dc := nd.c.m.Col(j)
			for i := range sc {
				dc[i] = vv[i] * sc[i]
			}
		}
		stop()
		s.chargeKernel(float64(nd.a.rows)*float64(nd.a.cols),
			16*float64(nd.a.rows)*float64(nd.a.cols), launch)
	case nodeScaleRowsCols:
		stop := s.trackReal()
		vv := nd.b.m.Col(0)
		for j := 0; j < nd.c.cols; j++ {
			col := nd.c.m.Col(j)
			inv := 1 / vv[j]
			for i := range col {
				col[i] *= vv[i] * inv
			}
		}
		stop()
		s.chargeKernel(2*float64(nd.c.rows)*float64(nd.c.cols),
			16*float64(nd.c.rows)*float64(nd.c.cols), launch)
	case nodeHost:
		nd.fn()
	case nodeRecord:
		atomic.StoreInt64(&nd.ev.ns, atomic.LoadInt64(&s.clockNS))
	case nodeWait:
		s.waitUntil(atomic.LoadInt64(&nd.ev.ns))
	}
}

// --- modeled-clock charging --------------------------------------------

// advance moves this stream's clock forward by durNS.
func (s *Stream) advance(durNS int64) { atomic.AddInt64(&s.clockNS, durNS) }

// waitUntil holds the stream clock at or after ns (event dependency).
func (s *Stream) waitUntil(ns int64) {
	for {
		cur := atomic.LoadInt64(&s.clockNS)
		if cur >= ns || atomic.CompareAndSwapInt64(&s.clockNS, cur, ns) {
			return
		}
	}
}

// chargeTransfer advances the stream and the DMA engine for a bytes-sized
// host<->device copy; launch adds the fixed per-transaction latency.
func (s *Stream) chargeTransfer(bytes int64, launch bool) {
	obs.Add(obs.OpDeviceBytes, bytes)
	d := s.dev
	ns := int64(float64(bytes) / transferBytesPerSec * 1e9)
	if launch {
		lat := int64(transferLatency)
		ns += lat
		atomic.AddInt64(&d.launchNS, lat)
	}
	atomic.AddInt64(&d.transferred, bytes)
	atomic.AddInt64(&d.xferBusyNS, ns)
	s.advance(ns)
}

// chargeKernel advances the stream and the compute engine for one kernel:
// the run time is whichever resource (flops or memory traffic) bottlenecks,
// plus the fixed launch cost when launch is set.
func (s *Stream) chargeKernel(flops, memBytes float64, launch bool) {
	obs.Add(obs.OpDeviceKernels, 1)
	obs.Add(obs.OpDeviceFlops, int64(flops))
	d := s.dev
	t := flops / gemmFlopsPerSec
	if m := memBytes / memBytesPerSec; m > t {
		t = m
	}
	ns := int64(t * 1e9)
	if launch {
		l := int64(kernelLaunch)
		ns += l
		atomic.AddInt64(&d.launchNS, l)
	}
	atomic.AddInt64(&d.kernels, 1)
	atomic.AddInt64(&d.flops, int64(flops))
	atomic.AddInt64(&d.busyNS, ns)
	s.advance(ns)
}

// trackReal measures the wall time the host spends executing a simulated
// kernel, so benchmark harnesses can subtract it when combining real host
// time with the modeled device clock.
func (s *Stream) trackReal() func() {
	start := time.Now()
	return func() {
		atomic.AddInt64(&s.dev.realNS, int64(time.Since(start)))
	}
}

// Clock returns this stream's modeled critical-path time.
func (s *Stream) Clock() time.Duration { return time.Duration(atomic.LoadInt64(&s.clockNS)) }
