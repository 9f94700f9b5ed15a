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
// sweeper level: with NC clusters per sweep, a spin sector's sweep performs
// NC prefix extensions and NC-1 combines, plus, from its second sweep on,
// the NC-1 suffix steps of the roll the sweep before left to it — 2*NC-1
// cluster-UDT steps in a fresh Sweeper's first sweep and 3*NC-2 in every
// later one, where re-stratifying the whole chain at every boundary would
// take NC^2.
func TestStackSweepUsesFewerUDTSteps(t *testing.T) {
	p, f := setup(t, 3, 3, 4, 2, 40, 47)
	sw := NewSweeper(p, f, rng.New(5), Options{ClusterK: 4})
	nc := int64(p.Model.L / sw.ClusterK()) // 10
	// Both spin sectors refresh at every boundary.
	for s, want := range []int64{2 * (2*nc - 1), 2 * (3*nc - 2), 2 * (3*nc - 2)} {
		start := obs.Total(obs.OpUDTSteps)
		sw.Sweep()
		if steps := obs.Total(obs.OpUDTSteps) - start; steps != want {
			t.Fatalf("sweep %d: %d UDT steps, want %d", s+1, steps, want)
		}
	}
}
