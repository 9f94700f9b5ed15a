package gpu

import (
	"fmt"
	"testing"

	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/mat"
	"questgo/internal/obs"
	"questgo/internal/rng"
	"questgo/internal/update"
)

// deviceSweeper builds the Markov chain over the device backend, with the
// paper's Algorithm 3 stratification on the host.
func deviceSweeper(g *Group, p *hubbard.Propagator, f *hubbard.Field, r *rng.Rand, opts update.Options, graphs bool) *update.Sweeper {
	opts.PrePivot = true
	return update.NewSweeperOn(p, f, r, opts, NewBackend(g, graphs))
}

// freshCPU evaluates the boundary-0 Green's function of the sweeper's
// current field from scratch on the host.
func freshCPU(t *testing.T, sw *update.Sweeper, sigma hubbard.Spin) *mat.Dense {
	t.Helper()
	g, err := greens.Green(greens.NewClusterSet(sw.Prop, sw.Field, sigma, sw.ClusterK()).Chain(0), true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestHybridSweeperGreenConsistency(t *testing.T) {
	p, f := testSetup(t, 3, 3, 4, 2, 8, 51)
	grp := NewGroup(1)
	sw := deviceSweeper(grp, p, f, rng.New(5), update.Options{ClusterK: 4, Delay: 3}, false)
	for i := 0; i < 3; i++ {
		sw.Sweep()
	}
	// The incrementally maintained G must match a fresh CPU evaluation of
	// the final field.
	fresh := freshCPU(t, sw, hubbard.Up)
	if d := mat.RelDiff(sw.GreenUp(), fresh); d > 1e-8 {
		t.Fatalf("hybrid sweeper G drifted: %g", d)
	}
	fresh = freshCPU(t, sw, hubbard.Down)
	if d := mat.RelDiff(sw.GreenDn(), fresh); d > 1e-8 {
		t.Fatalf("hybrid sweeper spin-down G drifted: %g", d)
	}
	if sw.AcceptanceRate() <= 0 || sw.AcceptanceRate() >= 1 {
		t.Fatalf("acceptance %v implausible", sw.AcceptanceRate())
	}
	if grp.Devs[0].Flops() == 0 {
		t.Fatal("device unused")
	}
}

// TestHybridSweeperSetClusterK resizes the hybrid sweeper's k between
// sweeps and checks the incrementally maintained G still matches a fresh
// CPU evaluation of the final field.
func TestHybridSweeperSetClusterK(t *testing.T) {
	p, f := testSetup(t, 3, 3, 4, 2, 12, 57)
	sw := deviceSweeper(NewGroup(1), p, f, rng.New(13), update.Options{ClusterK: 4, Delay: 3}, false)
	sw.Sweep()
	for _, k := range []int{2, 6, 3} {
		if got := sw.SetClusterK(k); got != k {
			t.Fatalf("SetClusterK(%d) = %d on L=12", k, got)
		}
		if sw.ClusterK() != k {
			t.Fatalf("ClusterK() = %d, want %d", sw.ClusterK(), k)
		}
		sw.Sweep()
		fresh := freshCPU(t, sw, hubbard.Up)
		if d := mat.RelDiff(sw.GreenUp(), fresh); d > 1e-8 {
			t.Fatalf("k=%d: hybrid G drifted after resize: %g", k, d)
		}
	}
	// 5 does not divide 12: snap down to 4.
	if got := sw.SetClusterK(5); got != 4 {
		t.Fatalf("SetClusterK(5) = %d on L=12, want 4", got)
	}
}

// fieldsEqual compares two auxiliary-field configurations exactly.
func fieldsEqual(a, b *hubbard.Field) bool {
	for s := range a.H {
		for i := range a.H[s] {
			if a.H[s][i] != b.H[s][i] {
				return false
			}
		}
	}
	return true
}

// TestSweeperDeviceAndGraphInvariance: the physical trajectory (auxiliary field and both Green's functions)
// must be bitwise identical across 1, 2 and 4 devices and with command
// graphs off or on — sharding and graphs shape modeled time only.
func TestSweeperDeviceAndGraphInvariance(t *testing.T) {
	run := func(nd int, graphs bool) (*hubbard.Field, *mat.Dense, *mat.Dense) {
		p, f := testSetup(t, 3, 3, 4, 2, 8, 61)
		grp := NewGroup(nd)
		sw := deviceSweeper(grp, p, f, rng.New(11), update.Options{ClusterK: 4, Delay: 3}, graphs)
		sw.Sweep()
		sw.Sweep()
		return f, sw.GreenUp().Clone(), sw.GreenDn().Clone()
	}
	fRef, gUpRef, gDnRef := run(1, false)
	for _, nd := range []int{1, 2, 4} {
		for _, graphs := range []bool{false, true} {
			if nd == 1 && !graphs {
				continue
			}
			f, gUp, gDn := run(nd, graphs)
			if !fieldsEqual(f, fRef) {
				t.Fatalf("devices=%d graphs=%v: auxiliary field diverged", nd, graphs)
			}
			if !gUp.EqualApprox(gUpRef, 0) || !gDn.EqualApprox(gDnRef, 0) {
				t.Fatalf("devices=%d graphs=%v: Green's functions diverged", nd, graphs)
			}
		}
	}
}

// TestSweeperSteadyDeviceMemory asserts the device footprint reaches
// steady state: after the first sweep, further sweeps — and a cluster-size
// resize — neither allocate net device memory nor raise the high-water
// mark.
func TestSweeperSteadyDeviceMemory(t *testing.T) {
	p, f := testSetup(t, 3, 3, 4, 2, 8, 67)
	grp := NewGroup(4)
	sw := deviceSweeper(grp, p, f, rng.New(29), update.Options{ClusterK: 4, Delay: 3}, true)
	sw.Sweep()
	alloc := make([]int64, grp.Size())
	high := make([]int64, grp.Size())
	for i, d := range grp.Devs {
		alloc[i], high[i] = d.AllocBytes(), d.MaxAllocBytes()
		if alloc[i] == 0 {
			t.Fatalf("device %d unused", i)
		}
	}
	sw.Sweep()
	sw.SetClusterK(2)
	sw.Sweep()
	sw.Sweep()
	for i, d := range grp.Devs {
		if d.AllocBytes() != alloc[i] {
			t.Fatalf("device %d allocation drifted %d -> %d bytes (leak or double free)",
				i, alloc[i], d.AllocBytes())
		}
		if d.MaxAllocBytes() != high[i] {
			t.Fatalf("device %d high-water grew %d -> %d bytes after warmup",
				i, high[i], d.MaxAllocBytes())
		}
	}
}

// TestShardedSetClusterKUnderAutopilot covers the autopilot actuator on a
// sharded sweeper: resizing k between sweeps (exactly as core's after-sweep
// step does) on 2- and 4-device groups must keep the trajectory
// bitwise identical to the single-device sweeper under the same schedule,
// and the final Green's function consistent with a fresh CPU evaluation.
func TestShardedSetClusterKUnderAutopilot(t *testing.T) {
	schedule := []int{2, 4, 1}
	run := func(nd int) (*hubbard.Field, *update.Sweeper) {
		p, f := testSetup(t, 3, 3, 4, 2, 8, 71)
		grp := NewGroup(nd)
		sw := deviceSweeper(grp, p, f, rng.New(19), update.Options{ClusterK: 4, Delay: 3}, true)
		sw.Sweep()
		for _, k := range schedule {
			if got := sw.SetClusterK(k); got != k {
				t.Fatalf("SetClusterK(%d) = %d on L=8", k, got)
			}
			sw.Sweep()
		}
		return f, sw
	}
	fRef, swRef := run(1)
	for _, nd := range []int{2, 4} {
		f, sw := run(nd)
		if !fieldsEqual(f, fRef) {
			t.Fatalf("devices=%d: field diverged under the k schedule", nd)
		}
		if !sw.GreenUp().EqualApprox(swRef.GreenUp(), 0) || !sw.GreenDn().EqualApprox(swRef.GreenDn(), 0) {
			t.Fatalf("devices=%d: Green's functions diverged under the k schedule", nd)
		}
		fresh := freshCPU(t, sw, hubbard.Up)
		if d := mat.RelDiff(sw.GreenUp(), fresh); d > 1e-8 {
			t.Fatalf("devices=%d: sharded G inconsistent with CPU after resizes: %g", nd, d)
		}
	}
}

func TestHybridSweeperProfile(t *testing.T) {
	p, f := testSetup(t, 3, 3, 4, 2, 8, 57)
	col := obs.New()
	sw := deviceSweeper(NewGroup(1), p, f, rng.New(3), update.Options{ClusterK: 4, Obs: col}, false)
	col.Reset()
	sw.Sweep()
	pd := col.PhaseDurations()
	for ph := obs.PhaseWrap; ph < obs.PhaseMeasure; ph++ {
		if pd[ph] == 0 {
			t.Fatalf("phase %s never timed", ph)
		}
	}
	// The simulated device must have charged its counters through obs too.
	d := col.OpDeltas()
	if d[obs.OpDeviceKernels] == 0 || d[obs.OpDeviceBytes] == 0 || d[obs.OpDeviceFlops] == 0 {
		t.Fatalf("device op counters not populated: kernels=%d bytes=%d flops=%d",
			d[obs.OpDeviceKernels], d[obs.OpDeviceBytes], d[obs.OpDeviceFlops])
	}
}

// TestCrossEngineBitwise runs the one Sweeper over the host backend and over
// device backends {1, 2, 4 devices} x {graphs off, on} in lockstep, through a
// schedule with mid-run SetClusterK calls (one a non-divisor request) and a
// SetStabilityEvery change, with the stability probes live. Every engine
// must agree bitwise with the host after every sweep on the auxiliary field,
// G up/down, the sign, the counters and the cluster size: stratification is
// one host code path whatever builds the clusters.
func TestCrossEngineBitwise(t *testing.T) {
	type engine struct {
		name string
		f    *hubbard.Field
		sw   *update.Sweeper
	}
	// One step per sweep; k > 0 requests a cluster size first (7 does not
	// divide L=12 and snaps to 6), every > 0 a new residual-check cadence.
	schedule := []struct{ k, every int }{{}, {}, {k: 2}, {k: 7, every: 1}, {}, {k: 3}, {k: 4, every: 5}}
	for _, tc := range []struct {
		nx, ny int
		u      float64
	}{
		{3, 3, 4},
		{4, 2, 6},
	} {
		opts := func() update.Options {
			return update.Options{ClusterK: 4, Delay: 3, PrePivot: true, Obs: obs.New(), StabilityEvery: 2}
		}
		p, f0 := testSetup(t, tc.nx, tc.ny, tc.u, 2, 12, 83)
		engines := []*engine{{name: "host", f: f0.Clone()}}
		engines[0].sw = update.NewSweeper(p, engines[0].f, rng.New(31), opts())
		for _, nd := range []int{1, 2, 4} {
			for _, graphs := range []bool{false, true} {
				e := &engine{name: fmt.Sprintf("devices=%d graphs=%v", nd, graphs), f: f0.Clone()}
				e.sw = deviceSweeper(NewGroup(nd), p, e.f, rng.New(31), opts(), graphs)
				engines = append(engines, e)
			}
		}
		for step, sc := range schedule {
			for _, e := range engines {
				if sc.k > 0 {
					e.sw.SetClusterK(sc.k)
				}
				if sc.every > 0 {
					e.sw.SetStabilityEvery(sc.every)
				}
				e.sw.Sweep()
			}
			ref := engines[0]
			for _, e := range engines[1:] {
				label := fmt.Sprintf("%dx%d step %d: %s vs %s", tc.nx, tc.ny, step, e.name, ref.name)
				if !fieldsEqual(e.f, ref.f) {
					t.Fatalf("%s: auxiliary field diverged", label)
				}
				ea, ep := e.sw.Counters()
				ra, rp := ref.sw.Counters()
				if ea != ra || ep != rp || e.sw.Sign() != ref.sw.Sign() || e.sw.ClusterK() != ref.sw.ClusterK() {
					t.Fatalf("%s: counters %d/%d sign %v k %d, want %d/%d sign %v k %d", label,
						ea, ep, e.sw.Sign(), e.sw.ClusterK(), ra, rp, ref.sw.Sign(), ref.sw.ClusterK())
				}
				dUp := mat.RelDiff(e.sw.GreenUp(), ref.sw.GreenUp())
				dDn := mat.RelDiff(e.sw.GreenDn(), ref.sw.GreenDn())
				if !(dUp == 0 && dDn == 0) { // a NaN fails too
					t.Fatalf("%s: Green's functions differ by %g / %g", label, dUp, dDn)
				}
			}
		}
		if k := engines[0].sw.ClusterK(); k != 4 {
			t.Fatalf("schedule ended at k=%d, want 4", k)
		}
	}
}

// TestModeledClockGolden pins the modeled device accounting of the
// production path to the nanosecond: two sweeps of a fixed 3x3, L=8, k=4,
// delay=3 lattice through NewSweeperOn over NewBackend, for 1/2/4 devices
// with graphs off and on. Every cell is a sum or a max of per-stream
// atomics, so the values repeat exactly; a change that reorders the ops on
// a stream, moves an op to another stream or changes an allocation shows
// up here. The literals were recorded at commit 0a598e9, before the
// Accelerator absorbed the flush lane.
func TestModeledClockGolden(t *testing.T) {
	type cell struct {
		clockNS, launchNS  int64
		kernels            int
		transferred, flops int64
		maxAllocBytes      int64
	}
	golden := map[string][]cell{
		"devices=1 graphs=false": {
			{4509712, 5740000, 252, 178272, 185652, 8928},
		},
		"devices=1 graphs=true": {
			{2949712, 3500000, 252, 178272, 185652, 8928},
		},
		"devices=2 graphs=false": {
			{2254856, 2870000, 126, 89136, 92826, 4464},
			{2254856, 2870000, 126, 89136, 92826, 4464},
		},
		"devices=2 graphs=true": {
			{1630089, 1750000, 126, 89136, 92826, 4464},
			{1630089, 1750000, 126, 89136, 92826, 4464},
		},
		"devices=4 graphs=false": {
			{1177788, 1490000, 64, 46728, 46656, 4464},
			{1097284, 1400000, 62, 43704, 46170, 4464},
			{1177788, 1490000, 64, 46728, 46656, 4464},
			{1097284, 1400000, 62, 43704, 46170, 4464},
		},
		"devices=4 graphs=true": {
			{860297, 930000, 64, 46728, 46656, 4464},
			{769792, 840000, 62, 43704, 46170, 4464},
			{860297, 930000, 64, 46728, 46656, 4464},
			{769792, 840000, 62, 43704, 46170, 4464},
		},
	}
	groupClock := map[string]int64{} // the slowest device: they run concurrently
	for _, nd := range []int{1, 2, 4} {
		for _, graphs := range []bool{false, true} {
			name := fmt.Sprintf("devices=%d graphs=%v", nd, graphs)
			p, f := testSetup(t, 3, 3, 4, 2, 8, 61)
			grp := NewGroup(nd)
			sw := deviceSweeper(grp, p, f, rng.New(11), update.Options{ClusterK: 4, Delay: 3}, graphs)
			sw.Sweep()
			sw.Sweep()
			for i, d := range grp.Devs {
				got := cell{int64(d.Clock()), int64(d.LaunchOverhead()), d.Kernels(),
					d.Transferred(), int64(d.Flops()), d.MaxAllocBytes()}
				if got != golden[name][i] {
					t.Errorf("%s device %d: modeled accounting moved:\n got %+v\nwant %+v", name, i, got, golden[name][i])
				}
				if got.clockNS > groupClock[name] {
					groupClock[name] = got.clockNS
				}
			}
		}
	}
	// Re-recording the literals must not hide lost scaling: a second device
	// has to buy at least 1.6x on the sharded sweep (the golden reads 2.00x).
	one, two := groupClock["devices=1 graphs=false"], groupClock["devices=2 graphs=false"]
	if float64(one) < 1.6*float64(two) {
		t.Errorf("2-device modeled speedup %.2fx < 1.6x (%d ns -> %d ns)", float64(one)/float64(two), one, two)
	}
}
