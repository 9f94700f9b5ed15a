package gpu

import (
	"testing"
	"time"

	"questgo/internal/gpu/hw"
	"questgo/internal/hubbard"
	"questgo/internal/mat"
	"questgo/internal/obs"
	"questgo/internal/rng"
)

// TestGraphReplayBitwiseIdentical checks the cardinal rule of command
// graphs: launching each wrap and cluster call as one graph produces
// bit-for-bit the numbers of the ungraphed path — graphs move modeled time,
// never results.
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
		t.Fatal("graphed wraps changed the Green's function")
	}
	if !c0On.EqualApprox(c0Off, 0) || !c1On.EqualApprox(c1Off, 0) {
		t.Fatal("graphed cluster build changed the product")
	}
}

// TestGraphLaunchAmortization pins the modeled effect the graphs exist
// for: graphed wrap/cluster calls must remove at least 90% of the
// per-launch and per-transfer-latency overhead (one launch per call
// instead of one per kernel and per transaction).
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
		t.Fatalf("graphed calls kept %.1f%% of launch overhead, want <= 10%% (off %dns, on %dns)",
			100*float64(on)/float64(off), off, on)
	}
}

// graphOperands are one call's device buffers, host data and events.
type graphOperands struct {
	a, b, c, v *hw.Matrix
	h, out     *mat.Dense
	hv         []float64
	e          [3]*hw.Event
}

func newGraphOperands(d *hw.Device, n int) *graphOperands {
	x := &graphOperands{
		a: d.Malloc(n, n), b: d.Malloc(n, n), c: d.Malloc(n, n), v: d.Malloc(n, 1),
		h: randomDense(rng.New(4), n), out: mat.New(n, n), hv: make([]float64, n),
	}
	for i := range x.e {
		x.e[i] = hw.NewEvent()
	}
	return x
}

// TestGraphCallCharges pins what a graphed call charges against the same
// ops issued ungraphed on a fresh device: exactly one kernel launch of
// fixed overhead and no transfer latency; the same kernels, flops and
// bytes; one graph replay and one graph node per op, Host, Record and Wait
// included; and the same numbers. Each row is one dependency chain over
// two streams that ends with both streams joined, so every fixed overhead
// lies on the path to each stream's clock: the graphed clocks are the
// ungraphed ones minus the fixed overheads, plus the one launch.
func TestGraphCallCharges(t *testing.T) {
	const n = 16
	oneLaunch := func() time.Duration {
		d := hw.NewDevice()
		x := newGraphOperands(d, n)
		d.NewStream().Dgemm(false, false, 1, x.a, x.b, 0, x.c)
		return d.LaunchOverhead()
	}()
	for _, tc := range []struct {
		name         string
		ops, kernels int
		issue        func(s0, s1 *hw.Stream, x *graphOperands)
	}{
		{"three kernels", 5, 3, func(s0, s1 *hw.Stream, x *graphOperands) {
			s0.Dgemm(false, false, 1, x.a, x.b, 0, x.c)
			s0.Dgemm(false, false, 1, x.a, x.c, 0, x.b)
			s0.Dgemm(false, false, 1, x.a, x.b, 0, x.c)
			s0.Record(x.e[2])
			s1.Wait(x.e[2])
		}},
		{"transfers, kernels, host and events", 13, 2, func(s0, s1 *hw.Stream, x *graphOperands) {
			s0.SetMatrix(x.a, x.h)
			s0.Host(func() { x.hv[0], x.hv[n-1] = 2, 0.5 })
			s0.SetVector(x.v, x.hv)
			s0.Record(x.e[0])
			s1.Wait(x.e[0])
			s1.Dgemm(false, false, 1, x.a, x.a, 0, x.c)
			s1.ScaleRows(x.b, x.c, x.v)
			s1.Record(x.e[1])
			s0.Wait(x.e[1])
			s0.GetMatrix(x.out, x.b)
			s0.Record(x.e[2])
			s1.Wait(x.e[2])
			s1.Host(func() {})
		}},
		{"host and events only", 3, 0, func(s0, s1 *hw.Stream, x *graphOperands) {
			s0.Host(func() {})
			s0.Record(x.e[2])
			s1.Wait(x.e[2])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type run struct {
				dev    *hw.Device
				clocks [2]time.Duration
				ops    obs.OpCounts
				out    *mat.Dense
			}
			call := func(graphed bool) run {
				d := hw.NewDevice()
				s0, s1 := d.NewStream(), d.NewStream()
				x := newGraphOperands(d, n)
				before := obs.Counts()
				if graphed {
					g := d.NewGraph(s0, s1)
					g.Begin()
					tc.issue(s0, s1, x)
					g.End()
				} else {
					tc.issue(s0, s1, x)
				}
				return run{d, [2]time.Duration{s0.Clock(), s1.Clock()}, obs.Counts().Sub(before), x.out}
			}
			off, on := call(false), call(true)
			if got := on.dev.LaunchOverhead(); got != oneLaunch {
				t.Errorf("graphed call charged %v of fixed overhead, want one launch (%v)", got, oneLaunch)
			}
			if on.dev.Kernels() != tc.kernels || off.dev.Kernels() != tc.kernels {
				t.Errorf("kernels: graphed %d, ungraphed %d, want %d", on.dev.Kernels(), off.dev.Kernels(), tc.kernels)
			}
			if on.dev.Flops() != off.dev.Flops() || on.dev.Transferred() != off.dev.Transferred() {
				t.Errorf("graphed work %v flops / %d bytes, ungraphed %v / %d",
					on.dev.Flops(), on.dev.Transferred(), off.dev.Flops(), off.dev.Transferred())
			}
			for op, want := range map[obs.Op][2]int64{
				obs.OpGraphReplays:  {1, 0},
				obs.OpGraphNodes:    {int64(tc.ops), 0},
				obs.OpDeviceKernels: {int64(tc.kernels), int64(tc.kernels)},
				obs.OpDeviceBytes:   {off.ops[obs.OpDeviceBytes], off.ops[obs.OpDeviceBytes]},
			} {
				if on.ops[op] != want[0] || off.ops[op] != want[1] {
					t.Errorf("%s: graphed %+d, ungraphed %+d, want %+d and %+d", op, on.ops[op], off.ops[op], want[0], want[1])
				}
			}
			shift := off.dev.LaunchOverhead() - oneLaunch
			for i := range on.clocks {
				if on.clocks[i] != off.clocks[i]-shift {
					t.Errorf("stream %d clock: graphed %v, want ungraphed %v minus %v of fixed overhead plus one launch",
						i, on.clocks[i], off.clocks[i], off.dev.LaunchOverhead())
				}
			}
			if on.dev.Clock() != off.dev.Clock()-shift {
				t.Errorf("device clock: graphed %v, ungraphed %v, want a %v shift", on.dev.Clock(), off.dev.Clock(), shift)
			}
			if !on.out.EqualApprox(off.out, 0) {
				t.Error("graphed call changed the downloaded result")
			}
		})
	}
}

// TestGraphForeignStreamPanics: a graph launches over streams of its own
// device only.
func TestGraphForeignStreamPanics(t *testing.T) {
	d1 := hw.NewDevice()
	d2 := hw.NewDevice()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a graph over another device's stream")
		}
	}()
	d1.NewGraph(d1.NewStream(), d2.NewStream())
}

// TestGraphNestedBeginPanics: a graphed call cannot open inside another on
// the same stream, whose End would close both.
func TestGraphNestedBeginPanics(t *testing.T) {
	d := hw.NewDevice()
	s := d.NewStream()
	d.NewGraph(s).Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a nested graphed call")
		}
	}()
	d.NewGraph(s).Begin()
}
