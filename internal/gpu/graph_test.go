package gpu

import (
	"testing"

	"questgo/internal/blas"
	"questgo/internal/gpu/hw"
	"questgo/internal/hubbard"
	"questgo/internal/mat"
	"questgo/internal/obs"
	"questgo/internal/rng"
)

// TestGraphReplayBitwiseIdentical checks the tentpole's cardinal rule:
// capturing the wrap and cluster sequences into command graphs and
// replaying them produces bit-for-bit the numbers of the ungraphed path —
// graphs move modeled time, never results.
func TestGraphReplayBitwiseIdentical(t *testing.T) {
	p, f := testSetup(t, 3, 3, 4, 2, 8, 21)
	n := p.Model.N()
	run := func(graphs bool) (*mat.Dense, *mat.Dense, *mat.Dense) {
		dev := hw.NewDevice()
		acc := NewAccelerator(dev, p, 1, graphs)
		g := randomDense(rng.New(9), n)
		for l := 0; l < p.Model.L; l++ {
			acc.Wrap(g, f, hubbard.Up, l)
		}
		c0, c1 := mat.New(n, n), mat.New(n, n)
		acc.Cluster(c0, f, hubbard.Up, 0, 4)
		acc.Cluster(c1, f, hubbard.Up, 4, 4)
		return g, c0, c1
	}
	gOff, c0Off, c1Off := run(false)
	gOn, c0On, c1On := run(true)
	if !gOn.EqualApprox(gOff, 0) {
		t.Fatal("graph-replayed wraps changed the Green's function")
	}
	if !c0On.EqualApprox(c0Off, 0) || !c1On.EqualApprox(c1Off, 0) {
		t.Fatal("graph-replayed cluster build changed the product")
	}
}

// TestGraphLaunchAmortization pins the modeled effect the graphs exist
// for: replaying the recorded wrap/cluster sequences must remove at least
// 90% of the per-launch and per-transfer-latency overhead (one launch per
// replay instead of one per kernel and per transaction).
func TestGraphLaunchAmortization(t *testing.T) {
	p, f := testSetup(t, 3, 3, 4, 2, 8, 23)
	n := p.Model.N()
	run := func(graphs bool) int64 {
		dev := hw.NewDevice()
		acc := NewAccelerator(dev, p, 1, graphs)
		g := randomDense(rng.New(9), n)
		dev.Reset() // exclude the one-time B upload
		for l := 0; l < p.Model.L; l++ {
			acc.Wrap(g, f, hubbard.Up, l)
		}
		c := mat.New(n, n)
		acc.Cluster(c, f, hubbard.Up, 0, 4)
		acc.Cluster(c, f, hubbard.Up, 4, 4)
		return int64(dev.LaunchOverhead())
	}
	off := run(false)
	on := run(true)
	if on <= 0 || off <= 0 {
		t.Fatalf("launch overhead not charged: off=%d on=%d", off, on)
	}
	if on*10 > off {
		t.Fatalf("graph replay kept %.1f%% of launch overhead, want <= 10%% (off %dns, on %dns)",
			100*float64(on)/float64(off), off, on)
	}
}

// TestGraphRebind captures a transfer+GEMM+download sequence once and
// retargets its host operands across replays.
func TestGraphRebind(t *testing.T) {
	d := hw.NewDevice()
	s := d.NewStream()
	n := 8
	da, db := d.Malloc(n, n), d.Malloc(n, n)
	h1 := randomDense(rng.New(4), n)
	out1 := mat.New(n, n)

	g := d.NewGraph()
	g.Capture(func() {
		s.SetMatrix(da, h1)
		s.Dgemm(false, false, 1, da, da, 0, db)
		s.GetMatrix(out1, db)
	}, s)
	if out1.EqualApprox(square(h1), 0) {
		t.Fatal("capture must not execute")
	}
	before := obs.Counts()
	g.Replay()
	if n := obs.Counts().Sub(before)[obs.OpGraphNodes]; n != 3 {
		t.Fatalf("replayed %d nodes, want the 3 captured", n)
	}
	if !out1.EqualApprox(square(h1), 0) {
		t.Fatal("first replay wrong")
	}

	// Rebind the upload source and the download destination, replay again.
	h2 := randomDense(rng.New(5), n)
	out2 := mat.New(n, n)
	if got := g.RebindHost(h1, h2); got != 1 {
		t.Fatalf("RebindHost(h1) rebound %d nodes, want 1", got)
	}
	if got := g.RebindHost(out1, out2); got != 1 {
		t.Fatalf("RebindHost(out1) rebound %d nodes, want 1", got)
	}
	g.Replay()
	if !out2.EqualApprox(square(h2), 0) {
		t.Fatal("replay after host rebind wrong")
	}
}

// square returns h*h from the host blas.Gemm. The graph GEMM is compared
// with it bitwise: the device never changes the numbers.
func square(h *mat.Dense) *mat.Dense {
	out := mat.New(h.Rows, h.Rows)
	blas.Gemm(false, false, 1, h, h, 0, out)
	return out
}

// TestGraphRebindShapeMismatchPanics checks the rebinding guards.
func TestGraphRebindShapeMismatchPanics(t *testing.T) {
	d := hw.NewDevice()
	s := d.NewStream()
	da := d.Malloc(4, 4)
	h := mat.New(4, 4)
	g := d.NewGraph()
	g.Capture(func() { s.SetMatrix(da, h) }, s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape-mismatched rebind")
		}
	}()
	g.RebindHost(h, mat.New(4, 5))
}

// TestGraphEmptyReplayPanics: replaying before capturing is a bug.
func TestGraphEmptyReplayPanics(t *testing.T) {
	d := hw.NewDevice()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty replay")
		}
	}()
	d.NewGraph().Replay()
}

// TestGraphCaptureForeignStreamPanics: a graph records streams of its own
// device only.
func TestGraphCaptureForeignStreamPanics(t *testing.T) {
	d1 := hw.NewDevice()
	d2 := hw.NewDevice()
	s2 := d2.NewStream()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cross-device capture")
		}
	}()
	d1.NewGraph().Capture(func() {}, s2)
}

// TestGraphReplayChargesOneLaunch pins the replay cost model exactly: a
// replayed k-node graph charges the kernel work plus a single launch.
func TestGraphReplayChargesOneLaunch(t *testing.T) {
	d := hw.NewDevice()
	s := d.NewStream()
	n := 16
	da, db, dc := d.Malloc(n, n), d.Malloc(n, n), d.Malloc(n, n)
	s.Dgemm(false, false, 1, da, db, 0, dc)
	want := int64(d.LaunchOverhead()) // one ungraphed kernel launch
	g := d.NewGraph()
	g.Capture(func() {
		s.Dgemm(false, false, 1, da, db, 0, dc)
		s.Dgemm(false, false, 1, da, dc, 0, db)
		s.Dgemm(false, false, 1, da, db, 0, dc)
	}, s)
	d.Reset()
	g.Replay()
	launch := int64(d.LaunchOverhead())
	if launch != want {
		t.Fatalf("replay charged %dns launch overhead, want exactly one launch (%dns)", launch, want)
	}
	if d.Kernels() != 3 {
		t.Fatalf("replay ran %d kernels, want 3", d.Kernels())
	}
}
