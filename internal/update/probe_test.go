package update

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"questgo/internal/obs"
	"questgo/internal/rng"
)

// probedRun is what a run with residual checks leaves behind: the field,
// both Green's functions and the whole stability block.
type probedRun struct {
	field    [][]float64
	gUp, gDn []float64
	stab     obs.StabilityMetrics
}

func (r *probedRun) diff(o *probedRun) string {
	for l := range r.field {
		if !slices.Equal(r.field[l], o.field[l]) {
			return fmt.Sprintf("field differs at slice %d", l)
		}
	}
	switch {
	case !slices.Equal(r.gUp, o.gUp):
		return "spin-up G differs"
	case !slices.Equal(r.gDn, o.gDn):
		return "spin-down G differs"
	case r.stab != o.stab:
		return fmt.Sprintf("stability block differs:\n got %+v\nwant %+v", r.stab, o.stab)
	}
	return ""
}

// TestProbeInFlightBitwise: the residual check runs beside the sweep and is
// joined up to two boundaries after the one it checks, so it must read a
// snapshot of everything those boundaries rewrite. With NC = 1 and 2 the
// boundary after next lies past the sweep's end (the join there is the
// sweep's own); with NC = 4 and 8 it lies inside the sweep, and at NC = 8
// (two slices a cluster) the check outlasts the cluster it runs beside, so a
// missing join shows; cadences 1-4 put the join at a re-arm, at the
// boundary after next, or at the end. At
// GOMAXPROCS 2 the check holds the only worker and every fork beside it
// runs serially; at 4 both run forked. Field, Green's functions and the
// whole stability block must equal the inline GOMAXPROCS = 1 run's bit for
// bit.
func TestProbeInFlightBitwise(t *testing.T) {
	const l, sweeps = 16, 8
	p, f0 := setup(t, 4, 4, 4, 2, l, 31)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, every := range []int{1, 2, 3, 4} {
		for _, nc := range []int{1, 2, 4, 8} {
			var ref *probedRun
			for _, mode := range []struct {
				procs  int
				serial bool
			}{{1, false}, {2, false}, {4, false}, {2, true}} {
				name := fmt.Sprintf("every=%d NC=%d GOMAXPROCS=%d serial=%v", every, nc, mode.procs, mode.serial)
				runtime.GOMAXPROCS(mode.procs)
				f := f0.Clone()
				col := obs.New()
				sw := NewSweeper(p, f, rng.New(5), Options{
					ClusterK: l / nc, Delay: 4, PrePivot: true,
					SerialSpins: mode.serial, Obs: col, StabilityEvery: every,
				})
				for i := 0; i < sweeps; i++ {
					sw.Sweep()
				}
				got := &probedRun{
					field: f.H,
					gUp:   slices.Clone(sw.GreenUp().Data),
					gDn:   slices.Clone(sw.GreenDn().Data),
					stab:  col.Metrics().Stability,
				}
				// The constructor's refresh is boundary 1.
				if want := int64((1 + sweeps*nc) / every); got.stab.StratResidualSamples != want {
					t.Errorf("%s: %d residual samples, want %d", name, got.stab.StratResidualSamples, want)
				}
				if got.stab.MaxStratResidual > 1e-9 {
					t.Errorf("%s: residual %g against the full rebuild", name, got.stab.MaxStratResidual)
				}
				if ref == nil {
					ref = got
				} else if d := got.diff(ref); d != "" {
					t.Errorf("%s: %s", name, d)
				}
			}
		}
	}
}
