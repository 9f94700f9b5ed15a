package update

import (
	"testing"

	"questgo/internal/hubbard"
	"questgo/internal/mat"
	"questgo/internal/obs"
	"questgo/internal/rng"
)

func fieldsEqual(t *testing.T, f1, f2 *hubbard.Field, label string) {
	t.Helper()
	for l := 0; l < f1.L; l++ {
		for i := 0; i < f1.N; i++ {
			if f1.H[l][i] != f2.H[l][i] {
				t.Fatalf("%s: fields diverged at (%d,%d)", label, l, i)
			}
		}
	}
}

// TestStackMatchesReferenceTrajectory runs the stratification-stack sweeper
// against the full-rebuild reference with the same RNG stream, under both
// pivoting policies: the boundary Green's functions agree to ~1e-12, far
// below any Metropolis threshold sensitivity, so the Monte Carlo
// trajectories must be identical and the end-of-sweep Green's functions
// (where both paths run the same incremental chain) must match to 1e-12.
func TestStackMatchesReferenceTrajectory(t *testing.T) {
	for _, prePivot := range []bool{false, true} {
		p, f1 := setup(t, 3, 3, 6, 3, 12, 43)
		f2 := f1.Clone()
		stacked := NewSweeper(p, f1, rng.New(9), Options{ClusterK: 4, PrePivot: prePivot})
		ref := NewSweeper(p, f2, rng.New(9), Options{ClusterK: 4, PrePivot: prePivot, NoStack: true})
		for s := 0; s < 3; s++ {
			stacked.Sweep()
			ref.Sweep()
		}
		fieldsEqual(t, f1, f2, "stack vs reference")
		if stacked.AcceptanceRate() != ref.AcceptanceRate() {
			t.Fatalf("prePivot=%v: acceptance differs: %v vs %v",
				prePivot, stacked.AcceptanceRate(), ref.AcceptanceRate())
		}
		if d := mat.RelDiff(stacked.GreenUp(), ref.GreenUp()); d > 1e-12 {
			t.Fatalf("prePivot=%v: spin-up G differs: %g", prePivot, d)
		}
		if d := mat.RelDiff(stacked.GreenDn(), ref.GreenDn()); d > 1e-12 {
			t.Fatalf("prePivot=%v: spin-down G differs: %g", prePivot, d)
		}
	}
}

// TestStackSweepUsesFewerUDTSteps asserts the tentpole accounting at the
// sweeper level: with NC clusters per sweep, the stacked refresh performs
// 3*NC-2 cluster-UDT steps per sweep while the reference re-stratifies
// NC^2, so for this configuration (NC = 10) the stack must come in under
// half the reference count.
func TestStackSweepUsesFewerUDTSteps(t *testing.T) {
	p, f1 := setup(t, 3, 3, 4, 2, 40, 47)
	f2 := f1.Clone()
	stacked := NewSweeper(p, f1, rng.New(5), Options{ClusterK: 4})
	ref := NewSweeper(p, f2, rng.New(5), Options{ClusterK: 4, NoStack: true})

	start := obs.Total(obs.OpUDTSteps)
	stacked.Sweep()
	stackSteps := obs.Total(obs.OpUDTSteps) - start

	start = obs.Total(obs.OpUDTSteps)
	ref.Sweep()
	refSteps := obs.Total(obs.OpUDTSteps) - start

	// Both spin sectors refresh at every boundary, so each path costs twice
	// its single-spin count.
	nc := int64(p.Model.L / stacked.ClusterK()) // 10
	if refSteps != 2*nc*nc {
		t.Fatalf("reference sweep: %d UDT steps, want %d", refSteps, 2*nc*nc)
	}
	if stackSteps != 2*(3*nc-2) {
		t.Fatalf("stacked sweep: %d UDT steps, want %d", stackSteps, 2*(3*nc-2))
	}
	if 2*stackSteps >= refSteps {
		t.Fatalf("stacked sweep (%d steps) not under half the reference (%d steps)", stackSteps, refSteps)
	}
}
