package update

import (
	"testing"

	"questgo/internal/obs"
	"questgo/internal/rng"
)

// TestStackMatchesReferenceTrajectory holds the stack refresh, the sweep's
// only one, to the full rebuild (greens.GreenInto over the boundary's
// cluster chain) at every boundary of three sweeps, under both pivoting
// policies: the cadence-1 residual check samples every boundary, the
// constructor's included, and none may exceed 1e-12 or be non-finite.
func TestStackMatchesReferenceTrajectory(t *testing.T) {
	for _, prePivot := range []bool{false, true} {
		p, f := setup(t, 3, 3, 6, 3, 12, 43)
		col := obs.New()
		sw := NewSweeper(p, f, rng.New(9), Options{ClusterK: 4, PrePivot: prePivot, Obs: col, StabilityEvery: 1})
		for s := 0; s < 3; s++ {
			sw.Sweep()
		}
		st := col.Metrics().Stability
		nc := int64(p.Model.L / sw.ClusterK())
		if st.StratResidualSamples != 1+3*nc || st.NonFiniteSeen || !(st.MaxStratResidual <= 1e-12) {
			t.Fatalf("prePivot=%v: %d residual samples (want %d), max %g (want <= 1e-12), non-finite %v",
				prePivot, st.StratResidualSamples, 1+3*nc, st.MaxStratResidual, st.NonFiniteSeen)
		}
	}
}

// TestStackSweepUsesFewerUDTSteps asserts the stack's accounting at the
// sweeper level: with NC clusters per sweep, a sweep performs 3*NC-2
// cluster-UDT steps per spin sector (NC prefix extensions, NC-1 combines,
// NC-1 suffix rebuild steps), where re-stratifying the whole chain at every
// boundary would take NC^2.
func TestStackSweepUsesFewerUDTSteps(t *testing.T) {
	p, f := setup(t, 3, 3, 4, 2, 40, 47)
	sw := NewSweeper(p, f, rng.New(5), Options{ClusterK: 4})
	start := obs.Total(obs.OpUDTSteps)
	sw.Sweep()
	sw.Join() // the roll may run beside the chain past Sweep's return
	steps := obs.Total(obs.OpUDTSteps) - start
	// Both spin sectors refresh at every boundary.
	nc := int64(p.Model.L / sw.ClusterK()) // 10
	if steps != 2*(3*nc-2) {
		t.Fatalf("sweep: %d UDT steps, want %d", steps, 2*(3*nc-2))
	}
}
