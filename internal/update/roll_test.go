package update_test

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"questgo/internal/hubbard"
	"questgo/internal/mat"
	"questgo/internal/obs"
	"questgo/internal/rng"
	"questgo/internal/update"
)

// TestRollJoinedWithinSweep: below stepForkMinN the stacks' roll that a
// sweep's boundary 0 leaves undone runs at the next sweep's head, on a pool
// worker beside the first cluster's slices, and is joined before the first
// boundary fork, so nothing is in flight when Sweep returns. The roll is
// held 2 ms on its goroutine, longer than a sweep here, so a sweep that
// skipped the join would return with it in flight, would roll the stacks a
// second time in the first boundary's Advance (UDT steps above the
// SerialSpins run's) and would race that Advance (-race); at one P the roll
// runs inline. The rows cover the first boundary at NC = 4 (L = 40,
// beta = 4) and at NC = 1 (L = 10, beta = 1; that boundary is boundary 0
// itself), with and without a collector, the residual check and a boundary
// hook, and a SetClusterK between sweeps, whose Retarget rolls the stacks
// itself. The rolls run are one per sweep after the first, minus the one
// the resize made moot; each run's field, Green's functions, sign and
// UDT-step count equal a SerialSpins run's, whose rolls run in the first
// boundary fork's Advance.
func TestRollJoinedWithinSweep(t *testing.T) {
	const sweeps = 4
	for _, tc := range []struct {
		name   string
		l, k   int
		obs    bool
		every  int
		hook   bool
		resize int // SetClusterK before the third sweep; 0 = none
	}{
		{"NC=4", 40, 10, false, 0, false, 0},
		{"NC=1", 10, 10, false, 0, false, 0},
		{"NC=4, collector, residual every 3, hook", 40, 10, true, 3, true, 0},
		{"NC=4, SetClusterK 5 mid-run", 40, 10, true, 0, true, 5},
	} {
		type run struct {
			field *hubbard.Field
			sw    *update.Sweeper
			steps int64
			rolls int32
		}
		var runs [2]run
		for i, serial := range []bool{false, true} {
			p, f := model(t, 4, 4, 0, float64(tc.l)/10, tc.l)
			opts := update.Options{ClusterK: tc.k, PrePivot: true, SerialSpins: serial, StabilityEvery: tc.every}
			if tc.obs {
				opts.Obs = obs.New()
			}
			sw := update.NewSweeper(p, f, rng.New(11), opts)
			if tc.hook {
				sw.SetBoundaryHook(func(_, _ *mat.Dense, _ float64) {})
			}
			var started, done atomic.Int32
			sw.SetOnRoll(func() {
				started.Add(1)
				time.Sleep(2 * time.Millisecond)
				done.Add(1)
			})
			start := obs.Total(obs.OpUDTSteps)
			for s := 0; s < sweeps; s++ {
				if s == 2 && tc.resize > 0 {
					sw.SetClusterK(tc.resize)
				}
				sw.Sweep()
				if sw.InFlight() || started.Load() != done.Load() {
					t.Errorf("%s, SerialSpins %v: sweep %d returned with work in flight", tc.name, serial, s+1)
				}
			}
			r := &runs[i]
			r.rolls = done.Load()
			r.steps = obs.Total(obs.OpUDTSteps) - start
			r.field, r.sw = f, sw
		}
		got, want := runs[0], runs[1]
		rolls := int32(sweeps - 1)
		if tc.resize > 0 {
			rolls--
		}
		if got.rolls != rolls || want.rolls != 0 {
			t.Errorf("%s: %d off-core rolls, %d under SerialSpins; want %d and 0", tc.name, got.rolls, want.rolls, rolls)
		}
		if got.steps != want.steps {
			t.Errorf("%s: %d UDT steps, %d under SerialSpins", tc.name, got.steps, want.steps)
		}
		same := got.sw.Sign() == want.sw.Sign() &&
			slices.Equal(got.sw.GreenUp().Data, want.sw.GreenUp().Data) &&
			slices.Equal(got.sw.GreenDn().Data, want.sw.GreenDn().Data)
		for l := range got.field.H {
			same = same && slices.Equal(got.field.H[l], want.field.H[l])
		}
		if !same {
			t.Errorf("%s: chain differs from the SerialSpins run", tc.name)
		}
	}
}
