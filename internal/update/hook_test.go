package update

import (
	"math"
	"testing"

	"questgo/internal/mat"
	"questgo/internal/rng"
)

func TestBoundaryHookFiresPerCluster(t *testing.T) {
	p, f := setup(t, 3, 3, 4, 2, 8, 41)
	sw := NewSweeper(p, f, rng.New(2), Options{ClusterK: 4})
	calls := 0
	sw.SetBoundaryHook(func(_, _ *mat.Dense, _ float64) { calls++ })
	sw.Sweep()
	if calls != 2 { // L/k = 8/4 boundaries per sweep
		t.Fatalf("hook fired %d times, want 2", calls)
	}
	sw.SetBoundaryHook(nil)
	sw.Sweep()
	if calls != 2 {
		t.Fatal("nil hook must disable callbacks")
	}
}

func TestBoundaryHookSeesFreshGreens(t *testing.T) {
	p, f := setup(t, 3, 3, 4, 2, 8, 43)
	sw := NewSweeper(p, f, rng.New(3), Options{ClusterK: 4})
	var snapshots []*mat.Dense
	sw.SetBoundaryHook(func(gup, _ *mat.Dense, _ float64) {
		snapshots = append(snapshots, gup.Clone())
	})
	sw.Sweep()
	if len(snapshots) != 2 {
		t.Fatalf("snapshots: %d", len(snapshots))
	}
	// Boundary Green's functions at different imaginary times must differ.
	if d := mat.RelDiff(snapshots[0], snapshots[1]); d < 1e-10 {
		t.Fatalf("boundary G's suspiciously identical: %g", d)
	}
	// The last snapshot is the end-of-sweep G.
	if d := mat.RelDiff(snapshots[1], sw.GreenUp()); d > 1e-14 {
		t.Fatalf("final boundary snapshot != end-of-sweep G: %g", d)
	}
}

func TestBoundaryHookDoesNotChangeTrajectory(t *testing.T) {
	p, f1 := setup(t, 3, 3, 4, 2, 8, 47)
	f2 := f1.Clone()
	sw1 := NewSweeper(p, f1, rng.New(9), Options{ClusterK: 4})
	sw2 := NewSweeper(p, f2, rng.New(9), Options{ClusterK: 4})
	sw2.SetBoundaryHook(func(_, _ *mat.Dense, _ float64) {}) // observer only
	for i := 0; i < 3; i++ {
		sw1.Sweep()
		sw2.Sweep()
	}
	for l := 0; l < f1.L; l++ {
		for i := 0; i < f1.N; i++ {
			if f1.H[l][i] != f2.H[l][i] {
				t.Fatal("hook perturbed the Markov chain")
			}
		}
	}
}

// hookSample is what one boundary hook call received.
type hookSample struct {
	gup, gdn *mat.Dense
	sign     float64
}

// recordHooks registers a hook on sw that clones every call's arguments.
func recordHooks(sw *Sweeper) *[]hookSample {
	var got []hookSample
	sw.SetBoundaryHook(func(gup, gdn *mat.Dense, sign float64) {
		got = append(got, hookSample{gup.Clone(), gdn.Clone(), sign})
	})
	return &got
}

// TestBoundaryHookOffCoreBitwise: below stepForkMinN the hooks of all but a
// sweep's last boundary run on a pool worker over a snapshot; every call
// receives bit for bit the G up, G down and sign the inline hooks of a
// SerialSpins sweeper receive, in boundary order, over four sweeps of
// NC = 4 on a 3x3 lattice (not bipartite, so the sign is free to move).
func TestBoundaryHookOffCoreBitwise(t *testing.T) {
	p, f := setup(t, 3, 3, 4, 0.6, 16, 53)
	var runs [2]*[]hookSample
	for i, serial := range []bool{false, true} {
		sw := NewSweeper(p, f.Clone(), rng.New(17), Options{ClusterK: 4, SerialSpins: serial})
		runs[i] = recordHooks(sw)
		for s := 0; s < 4; s++ {
			sw.Sweep()
		}
	}
	got, want := *runs[0], *runs[1]
	if len(got) != 16 || len(want) != 16 {
		t.Fatalf("%d off-core and %d inline hook calls, want 16 each", len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i].gup, want[i].gup) || !sameBits(got[i].gdn, want[i].gdn) ||
			math.Float64bits(got[i].sign) != math.Float64bits(want[i].sign) {
			t.Fatalf("hook call %d (boundary %d): arguments differ from the inline run's", i, (i+1)%4)
		}
	}
}
