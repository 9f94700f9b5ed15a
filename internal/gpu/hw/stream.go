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
	clockNS int64 // atomic: this stream's critical-path time
	graphed bool  // between a Graph's Begin and End; only the graphed caller issues then
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

// Record stamps e with the stream's current modeled time.
func (s *Stream) Record(e *Event) {
	s.issue()
	atomic.StoreInt64(&e.ns, atomic.LoadInt64(&s.clockNS))
}

// Wait orders the stream after e: its clock cannot run ahead of the
// recorded stamp (cudaStreamWaitEvent).
func (s *Stream) Wait(e *Event) {
	s.issue()
	s.waitUntil(atomic.LoadInt64(&e.ns))
}

// Host runs a host callback at its position in the stream
// (cudaLaunchHostFunc): fn runs on the CPU before the next op is issued and
// costs no modeled device time. Inside a graphed call it counts as a graph
// node, as a host node of a CUDA graph does.
func (s *Stream) Host(fn func()) {
	s.issue()
	fn()
}

// --- stream operations -------------------------------------------------

// SetMatrix copies a host matrix to the device (cublasSetMatrixAsync).
func (s *Stream) SetMatrix(dst *Matrix, src *mat.Dense) {
	s.dev.checkOwned(dst)
	if dst.rows != src.Rows || dst.cols != src.Cols {
		panic(fmt.Sprintf("hw: SetMatrix dimension mismatch: device matrix is %dx%d but host source is %dx%d", dst.rows, dst.cols, src.Rows, src.Cols))
	}
	dst.m.CopyFrom(src)
	s.chargeTransfer(int64(src.Rows) * int64(src.Cols) * 8)
}

// GetMatrix copies a device matrix back to the host (cublasGetMatrixAsync).
func (s *Stream) GetMatrix(dst *mat.Dense, src *Matrix) {
	s.dev.checkOwned(src)
	if dst.Rows != src.rows || dst.Cols != src.cols {
		panic(fmt.Sprintf("hw: GetMatrix dimension mismatch: host destination is %dx%d but device matrix is %dx%d", dst.Rows, dst.Cols, src.rows, src.cols))
	}
	dst.CopyFrom(src.m)
	s.chargeTransfer(int64(src.rows) * int64(src.cols) * 8)
	check.Finite("hw.GetMatrix", dst)
}

// SetVector uploads a host vector (cublasSetVectorAsync).
func (s *Stream) SetVector(dst *Matrix, src []float64) {
	s.dev.checkOwned(dst)
	if dst.cols != 1 || dst.rows != len(src) {
		panic(fmt.Sprintf("hw: SetVector dimension mismatch: device vector is %dx%d but len(src)=%d", dst.rows, dst.cols, len(src)))
	}
	copy(dst.m.Col(0), src)
	s.chargeTransfer(int64(len(src)) * 8)
}

// Dgemm computes C = alpha*op(A)*op(B) + beta*C on the device.
func (s *Stream) Dgemm(transA, transB bool, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	s.dev.checkOwned(a)
	s.dev.checkOwned(b)
	s.dev.checkOwned(c)
	stop := s.trackReal()
	blas.Gemm(transA, transB, alpha, a.m, b.m, beta, c.m)
	stop()
	m, k := a.rows, a.cols
	if transA {
		m, k = k, m
	}
	s.chargeKernel(blas.GemmFlops(m, c.cols, k), 0)
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
	stop := s.trackReal()
	vv := v.m.Col(0)
	for j := 0; j < src.cols; j++ {
		sc := src.m.Col(j)
		dc := dst.m.Col(j)
		for i := range sc {
			dc[i] = vv[i] * sc[i]
		}
	}
	stop()
	s.chargeKernel(float64(src.rows)*float64(src.cols), 16*float64(src.rows)*float64(src.cols))
}

// ScaleRowsCols is the paper's Algorithm 7 kernel:
// G = diag(v) * G * diag(v)^{-1}, with the column factor read through the
// texture cache. In-place, one launch. Each element rounds as the host's
// wrap write-back does: times v[i], then times 1/v[j].
func (s *Stream) ScaleRowsCols(g *Matrix, v *Matrix) {
	s.dev.checkOwned(g)
	s.dev.checkOwned(v)
	if v.cols != 1 || v.rows != g.rows || g.rows != g.cols {
		panic(fmt.Sprintf("hw: ScaleRowsCols dimension mismatch: g is %dx%d, v is %dx%d", g.rows, g.cols, v.rows, v.cols))
	}
	stop := s.trackReal()
	vv := v.m.Col(0)
	for j := 0; j < g.cols; j++ {
		col := g.m.Col(j)
		inv := 1 / vv[j]
		for i := range col {
			col[i] = col[i] * vv[i] * inv
		}
	}
	stop()
	s.chargeKernel(2*float64(g.rows)*float64(g.cols), 16*float64(g.rows)*float64(g.cols))
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

// issue counts an op: inside a graphed call it is one graph node and pays
// no fixed overhead of its own (the graph's launch covers it); otherwise
// issue reports that it pays its own launch or transfer latency.
func (s *Stream) issue() (fixed bool) {
	if s.graphed {
		obs.Add(obs.OpGraphNodes, 1)
		return false
	}
	return true
}

// chargeTransfer advances the stream and the DMA engine for a bytes-sized
// host<->device copy, plus the fixed per-transaction latency outside a
// graphed call.
func (s *Stream) chargeTransfer(bytes int64) {
	obs.Add(obs.OpDeviceBytes, bytes)
	d := s.dev
	ns := int64(float64(bytes) / transferBytesPerSec * 1e9)
	if s.issue() {
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
// plus the fixed launch cost outside a graphed call.
func (s *Stream) chargeKernel(flops, memBytes float64) {
	obs.Add(obs.OpDeviceKernels, 1)
	obs.Add(obs.OpDeviceFlops, int64(flops))
	d := s.dev
	t := flops / gemmFlopsPerSec
	if m := memBytes / memBytesPerSec; m > t {
		t = m
	}
	ns := int64(t * 1e9)
	if s.issue() {
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
