package update_test

import (
	"runtime"
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

// TestDeferredRollJoinedBeforeAdvance: below stepForkMinN the stacks' roll
// after boundary 0 runs on a pool worker beside the chain, and everything
// that needs a rolled stack joins it first. With two or more Ps the roll is
// held in flight for 2 ms past Sweep's return, so a path that skipped the
// join would call Advance on an un-rolled stack, which panics, or race
// Retarget against the Rebuild (-race); at one P it runs inline. The rows
// cover the next sweep's first boundary at NC = 4 (L = 40, beta = 4) and
// at NC = 1 (L = 10, beta = 1; that boundary is boundary 0 itself), with
// and without a collector, the residual check and a boundary hook, and a
// SetClusterK between sweeps; each run's field, Green's functions, sign and
// UDT-step count equal a SerialSpins run's, whose roll runs inline.
func TestDeferredRollJoinedBeforeAdvance(t *testing.T) {
	offCore := runtime.GOMAXPROCS(0) >= 2 // at one P every Start runs inline
	for _, tc := range []struct {
		name   string
		l, k   int
		obs    bool
		every  int
		hook   bool
		resize int // SetClusterK after the second sweep; 0 = none
	}{
		{"NC=4", 40, 10, false, 0, false, 0},
		{"NC=1", 10, 10, false, 0, false, 0},
		{"NC=4, collector, residual every 3, hook", 40, 10, true, 3, true, 0},
		{"NC=4, SetClusterK 5 mid-run", 40, 10, true, 0, true, 5},
	} {
		type run struct {
			field  *hubbard.Field
			sw     *update.Sweeper
			steps  int64
			rolls  int
			behind int // rolls still in flight when Sweep returned
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
			var done atomic.Int32
			r := &runs[i]
			sw.SetOnRoll(func() {
				time.Sleep(2 * time.Millisecond)
				done.Add(1)
			})
			start := obs.Total(obs.OpUDTSteps)
			for s := 0; s < 4; s++ {
				if s == 2 && tc.resize > 0 {
					sw.SetClusterK(tc.resize)
				}
				sw.Sweep()
				if int(done.Load()) <= s {
					r.behind++
				}
			}
			sw.Join()
			r.rolls = int(done.Load())
			r.steps = obs.Total(obs.OpUDTSteps) - start
			r.field, r.sw = f, sw
		}
		got, want := runs[0], runs[1]
		if got.rolls != 4 || want.rolls != 0 {
			t.Errorf("%s: %d deferred rolls, %d under SerialSpins; want 4 and 0", tc.name, got.rolls, want.rolls)
		}
		if (got.behind > 0) != offCore {
			t.Errorf("%s: %d of 4 rolls outlived their sweep at GOMAXPROCS %d", tc.name, got.behind, runtime.GOMAXPROCS(0))
		}
		if got.steps != want.steps {
			t.Errorf("%s: %d UDT steps after Join, %d under SerialSpins", tc.name, got.steps, want.steps)
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
