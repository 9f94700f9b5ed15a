// Package hw is the simulated GPU hardware of the paper's Section VI: a
// Device with explicit host<->device transfers, kernel launches and a
// cost model calibrated to the paper's Tesla C2050 (PCIe bandwidth +
// latency, DGEMM throughput, memory-bandwidth-bound scaling kernels).
// Arithmetic executes bit for bit on the host, so every numerical result is
// real; only the *clock* is modeled.
//
// Execution is organised around Streams (stream.go): every operation is
// enqueued on a Stream whose modeled clock advances independently, with
// Event dependencies serializing only where the dataflow requires it — the
// same semantics as CUDA streams. The Device keeps two engine occupancy
// accumulators (compute and DMA) so concurrent streams can overlap in time
// but never exceed the card's aggregate throughput; its Clock is the
// lower-bound makespan max(stream critical paths, engine occupancies).
// Command graphs (graph.go) record a stream's launch sequence once and
// replay it for a single launch overhead.
//
// The clock cells are unexported and written only by Stream and Graph
// methods (and Device.Reset): the package boundary is what keeps the
// engine (internal/gpu) from charging time outside an event-ordered
// stream — such a write does not compile.
package hw

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"questgo/internal/mat"
)

// The cost model, calibrated to the paper's hardware: ~300 GFlop/s
// sustained CUBLAS DGEMM, 144 GB/s memory bandwidth, ~6 GB/s effective
// PCIe 2.0 transfer, microsecond-scale launch overhead.
const (
	modelName = "sim-tesla-c2050"
	// transferBytesPerSec is the host<->device (PCIe) bandwidth.
	transferBytesPerSec = 6e9
	// transferLatency is the fixed per-transaction cost.
	transferLatency = 10 * time.Microsecond
	// kernelLaunch is the fixed cost of launching any kernel.
	kernelLaunch = 5 * time.Microsecond
	// gemmFlopsPerSec is sustained double-precision DGEMM throughput.
	gemmFlopsPerSec = 300e9
	// memBytesPerSec is device memory bandwidth, which bounds the scaling
	// kernels (they do O(1) flops per element and are bandwidth limited, as
	// the paper notes for Algorithms 5 and 7).
	memBytesPerSec = 144e9
)

// Device is a simulated accelerator: matrices "resident" on it are ordinary
// host memory, but every operation advances a modeled clock according to
// the cost model.
//
// All timing state is atomic so independent command streams — the spin-up
// and spin-down Accelerators of the spin-parallel sweep, or the compute and
// copy streams of one Accelerator — can charge the same device
// concurrently with no serializing mutex. Matrix payloads are not guarded:
// concurrent use is only safe on disjoint device matrices, which per-spin
// Accelerator scratch guarantees.
type Device struct {
	mu      sync.Mutex // guards the stream list only
	streams []*Stream  //qmc:guarded(mu)

	// Modeled clock state, all atomic nanosecond/count cells. Written only
	// by Stream and Graph methods (and Reset); unexported, so no code outside
	// this package can advance the clock directly.
	busyNS     int64 // compute-engine occupancy (kernel time + launches)
	xferBusyNS int64 // DMA-engine occupancy (transfer time + latencies)
	launchNS   int64 // launch + transfer-latency overhead included above
	realNS     int64 // host wall time spent executing simulated kernels

	transferred int64
	kernels     int64
	flops       int64 // modeled flops are integral (2mnk etc.)

	allocBytes    int64
	maxAllocBytes int64
}

// NewDevice creates a device.
func NewDevice() *Device { return &Device{} }

// Matrix is a device-resident column-major matrix.
type Matrix struct {
	dev  *Device
	m    *mat.Dense
	rows int
	cols int
}

// Malloc allocates an uninitialized device matrix and accounts it against
// the device's allocation counters (cudaMalloc).
func (d *Device) Malloc(rows, cols int) *Matrix {
	bytes := int64(rows) * int64(cols) * 8
	now := atomic.AddInt64(&d.allocBytes, bytes)
	for {
		hw := atomic.LoadInt64(&d.maxAllocBytes)
		if now <= hw || atomic.CompareAndSwapInt64(&d.maxAllocBytes, hw, now) {
			break
		}
	}
	return &Matrix{dev: d, m: mat.New(rows, cols), rows: rows, cols: cols}
}

// Sub returns a view of the device matrix sharing its storage.
func (a *Matrix) Sub(i, j, rows, cols int) *Matrix {
	return &Matrix{dev: a.dev, m: a.m.View(i, j, rows, cols), rows: rows, cols: cols}
}

// AllocBytes returns the bytes currently allocated on the device.
func (d *Device) AllocBytes() int64 { return atomic.LoadInt64(&d.allocBytes) }

// MaxAllocBytes returns the high-water allocation mark — the modeled
// device memory footprint.
func (d *Device) MaxAllocBytes() int64 { return atomic.LoadInt64(&d.maxAllocBytes) }

func (d *Device) checkOwned(a *Matrix) {
	if a.dev != d {
		panic("hw: matrix belongs to another device")
	}
}

// Clock returns the modeled device time elapsed since the last Reset: the
// lower-bound makespan over all command streams and both engines. A single
// serialized stream reduces to the old global clock; concurrent streams
// overlap, but can never beat the compute- or DMA-engine occupancy totals
// (two streams issuing GEMMs still share one card's DGEMM throughput).
func (d *Device) Clock() time.Duration {
	max := atomic.LoadInt64(&d.busyNS)
	if x := atomic.LoadInt64(&d.xferBusyNS); x > max {
		max = x
	}
	d.mu.Lock()
	for _, s := range d.streams {
		if c := atomic.LoadInt64(&s.clockNS); c > max {
			max = c
		}
	}
	d.mu.Unlock()
	return time.Duration(max)
}

// BusyCompute returns the accumulated compute-engine occupancy.
func (d *Device) BusyCompute() time.Duration { return time.Duration(atomic.LoadInt64(&d.busyNS)) }

// BusyTransfer returns the accumulated DMA-engine occupancy.
func (d *Device) BusyTransfer() time.Duration {
	return time.Duration(atomic.LoadInt64(&d.xferBusyNS))
}

// LaunchOverhead returns the total fixed kernel-launch and transfer-latency
// overhead charged since Reset — the quantity command-graph replay
// amortizes away.
func (d *Device) LaunchOverhead() time.Duration {
	return time.Duration(atomic.LoadInt64(&d.launchNS))
}

// RealTime returns the wall time the host spent executing simulated device
// kernels since the last Reset (transfer copies excluded; they stand in
// for DMA).
func (d *Device) RealTime() time.Duration { return time.Duration(atomic.LoadInt64(&d.realNS)) }

// Flops returns the floating-point operations charged since Reset.
func (d *Device) Flops() float64 { return float64(atomic.LoadInt64(&d.flops)) }

// Transferred returns host<->device bytes moved since Reset.
func (d *Device) Transferred() int64 { return atomic.LoadInt64(&d.transferred) }

// Kernels returns the number of kernel launches since Reset.
func (d *Device) Kernels() int { return int(atomic.LoadInt64(&d.kernels)) }

// GFlopsRate returns the achieved modeled throughput in GFlop/s.
func (d *Device) GFlopsRate() float64 {
	c := d.Clock()
	if c == 0 {
		return 0
	}
	return d.Flops() / c.Seconds() / 1e9
}

// Reset zeroes the modeled clock and counters (allocations persist).
func (d *Device) Reset() {
	atomic.StoreInt64(&d.busyNS, 0)
	atomic.StoreInt64(&d.xferBusyNS, 0)
	atomic.StoreInt64(&d.launchNS, 0)
	atomic.StoreInt64(&d.realNS, 0)
	atomic.StoreInt64(&d.transferred, 0)
	atomic.StoreInt64(&d.kernels, 0)
	atomic.StoreInt64(&d.flops, 0)
	d.mu.Lock()
	for _, s := range d.streams {
		atomic.StoreInt64(&s.clockNS, 0)
	}
	d.mu.Unlock()
}

// String describes the device.
func (d *Device) String() string {
	return fmt.Sprintf("%s: %.0f GF dgemm, %.0f GB/s mem, %.1f GB/s pcie",
		modelName, gemmFlopsPerSec/1e9, memBytesPerSec/1e9, transferBytesPerSec/1e9)
}
