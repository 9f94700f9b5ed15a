package hw

import (
	"sync/atomic"

	"questgo/internal/obs"
)

// Graph is the launch of a command graph — the analogue of cudaGraphLaunch
// on a graph holding one call's kernels and transfers. A graphed call
// brackets the ops it issues on the graph's streams with Begin and End:
// Begin charges the single launch overhead, and every op in between runs at
// once, exactly as on an ungraphed stream, but without its own per-kernel
// launch or per-transfer latency. That is the amortization CUDA Graphs exist
// for: a sweep's cluster or wrap sequence pays one launch instead of one per
// kernel and transaction. The arithmetic, its order and the event topology
// are the ungraphed call's, so trajectories stay bitwise equal and
// overlapped transfer/compute pipelines keep their modeled overlap.
type Graph struct {
	dev     *Device
	streams []*Stream
}

// NewGraph returns a graph over streams of d. Begin charges its launch to
// the first stream's clock.
func (d *Device) NewGraph(streams ...*Stream) *Graph {
	if len(streams) == 0 {
		panic("hw: NewGraph needs at least one stream")
	}
	for _, s := range streams {
		if s.dev != d {
			panic("hw: graph stream belongs to another device")
		}
	}
	return &Graph{dev: d, streams: streams}
}

// Begin opens a graphed call: one kernel launch, charged to the first
// stream's clock and the compute front-end, and one graph replay. Until
// End, every op on the graph's streams counts as one graph node and pays no
// fixed overhead of its own.
//
//qmc:hot
func (g *Graph) Begin() {
	obs.Add(obs.OpGraphReplays, 1)
	d := g.dev
	l := int64(kernelLaunch)
	atomic.AddInt64(&d.launchNS, l)
	atomic.AddInt64(&d.busyNS, l)
	g.streams[0].advance(l)
	for _, s := range g.streams {
		if s.graphed {
			panic("hw: Graph.Begin on a stream already in a graphed call")
		}
		s.graphed = true
	}
}

// End closes the graphed call Begin opened.
//
//qmc:hot
func (g *Graph) End() {
	for _, s := range g.streams {
		s.graphed = false
	}
}
