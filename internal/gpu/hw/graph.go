package hw

import (
	"fmt"
	"sync/atomic"

	"questgo/internal/mat"
	"questgo/internal/obs"
)

// Graph is a recorded command sequence — the analogue of a CUDA Graph
// (cudaStreamBeginCapture / cudaGraphLaunch). Capture records the stream
// operations issued by a setup closure *without executing them*; Replay
// executes the whole sequence while charging the fixed launch overhead
// exactly once, which is the amortization CUDA Graphs exist for: a
// recorded sweep's cluster or wrap sequence stops paying per-kernel launch
// and per-transfer latency.
//
// Replays are parameterized two ways, mirroring cudaGraphExecUpdate:
//
//   - Host nodes (Stream.Host) re-execute their callback on every replay,
//     so a callback that reads mutable fields (the current slice index,
//     the live auxiliary field) re-binds the *data* flowing into fixed
//     device buffers.
//   - RebindHost swaps a host operand pointer across the whole graph (a
//     new download destination).
//
// A graph records the event topology too: Record/Wait nodes captured from
// multiple streams replay with the same cross-stream ordering constraints,
// so overlapped transfer/compute pipelines keep their modeled overlap.
type Graph struct {
	dev     *Device
	nodes   []node
	streams []*Stream
}

// NewGraph returns an empty graph on the device.
func (d *Device) NewGraph() *Graph { return &Graph{dev: d} }

// Capture records every operation the setup closure issues on the given
// streams. Nothing executes during capture — the first execution is the
// first Replay. Capturing while a capture is already active on one of the
// streams panics, as does capturing nothing.
func (g *Graph) Capture(record func(), streams ...*Stream) {
	if len(streams) == 0 {
		panic("hw: Graph.Capture needs at least one stream")
	}
	for _, s := range streams {
		if s.dev != g.dev {
			panic("hw: Graph.Capture stream belongs to another device")
		}
		if s.capture != nil {
			panic("hw: stream is already capturing")
		}
	}
	g.nodes = g.nodes[:0]
	g.streams = append(g.streams[:0], streams...)
	for _, s := range streams {
		s.capture = g
	}
	record()
	for _, s := range streams {
		s.capture = nil
	}
}

// add appends a recorded node (called from the stream entry points while
// capturing).
func (g *Graph) add(nd node) { g.nodes = append(g.nodes, nd) }

// Replay executes the recorded sequence: identical host arithmetic in
// identical order to the ungraphed path (trajectories stay bitwise equal),
// but the modeled clock charges the kernel-launch overhead once for the
// whole graph instead of once per node.
//
//qmc:hot
func (g *Graph) Replay() {
	if len(g.nodes) == 0 {
		panic("hw: Replay of an empty graph (Capture first)")
	}
	obs.Add(obs.OpGraphReplays, 1)
	obs.Add(obs.OpGraphNodes, int64(len(g.nodes)))
	// One launch for the whole graph, charged to the first stream's clock
	// and the compute front-end.
	d := g.dev
	l := int64(kernelLaunch)
	atomic.AddInt64(&d.launchNS, l)
	atomic.AddInt64(&d.busyNS, l)
	g.nodes[0].s.advance(l)
	for i := range g.nodes {
		nd := &g.nodes[i]
		nd.s.runNode(*nd, false)
	}
}

// RebindHost replaces every occurrence of the host matrix from among the
// graph's transfer operands with to, returning how many nodes rebound. The
// replacement must have the shape the graph was captured with (the stream
// entry points validated it then; replay trusts it now).
func (g *Graph) RebindHost(from, to *mat.Dense) int {
	if from.Rows != to.Rows || from.Cols != to.Cols {
		panic(fmt.Sprintf("hw: RebindHost shape mismatch: captured %dx%d, rebind %dx%d", from.Rows, from.Cols, to.Rows, to.Cols))
	}
	n := 0
	for i := range g.nodes {
		if g.nodes[i].hm == from {
			g.nodes[i].hm = to
			n++
		}
	}
	return n
}
