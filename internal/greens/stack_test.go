package greens

import (
	"slices"
	"testing"

	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/obs"
	"questgo/internal/rng"
)

func stackSetup(t *testing.T, nx, ny int, u, beta float64, l, k int, seed uint64) (*hubbard.Propagator, *hubbard.Field, *ClusterSet) {
	t.Helper()
	lat := lattice.NewSquare(nx, ny, 1.0)
	m, err := hubbard.NewModel(lat, u, 0, beta, l)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(m)
	f := hubbard.NewRandomField(l, m.N(), rng.New(seed))
	return p, f, NewClusterSet(p, f, hubbard.Up, k)
}

// mutateCluster flips a few field entries inside cluster c, emulating the
// re-sampling a Metropolis sweep performs before Recompute(c).
func mutateCluster(f *hubbard.Field, c, k int, r *rng.Rand) {
	for j := 0; j < k; j++ {
		s := c*k + j
		for i := 0; i < f.N; i++ {
			if r.Float64() < 0.3 {
				f.Flip(s, i)
			}
		}
	}
}

// TestStratStackMatchesFullRebuild drives a StratStack through the exact
// boundary sequence of a Metropolis sweep — mutate cluster c, Recompute(c),
// Advance, read the Green's function — for several "sweeps", checking the
// combined prefix+suffix evaluation against a full chain re-stratification
// at every boundary, under both pivoting policies.
func TestStratStackMatchesFullRebuild(t *testing.T) {
	for _, prePivot := range []bool{false, true} {
		p, f, cs := stackSetup(t, 3, 3, 4, 2, 12, 4, 31)
		r := rng.New(7)
		st := NewStratStack(cs, prePivot)
		n := p.Model.N()
		got, want := mat.New(n, n), mat.New(n, n)

		// The initial (filled = 0) evaluation must match boundary 0.
		st.GreenInto(got)
		GreenInto(want, cs.Chain(0), prePivot)
		if d := mat.RelDiff(got, want); d != 0 {
			t.Fatalf("prePivot=%v: initial stack G not identical to full chain: %g", prePivot, d)
		}

		for sweep := 0; sweep < 3; sweep++ {
			for c := 0; c < cs.NC; c++ {
				mutateCluster(f, c, cs.K, r)
				cs.Recompute(f, c)
				st.Advance()
				st.GreenInto(got)
				GreenInto(want, cs.Chain((c+1)%cs.NC), prePivot)
				if d := mat.RelDiff(got, want); d > 1e-12 {
					t.Fatalf("prePivot=%v sweep %d boundary %d: stack vs rebuild rel diff %g",
						prePivot, sweep, c, d)
				}
			}
		}
	}
}

// TestStratStackStepCount asserts the asymptotic win: one simulated sweep
// costs the stack O(NC) cluster-UDT steps (NC prefix extensions, up to
// NC-1 combines, NC-1 suffix rebuild steps) versus the NC^2 steps of
// re-stratifying the full chain at each of the NC boundaries.
func TestStratStackStepCount(t *testing.T) {
	_, f, cs := stackSetup(t, 3, 3, 4, 2, 20, 4, 37)
	nc := cs.NC // 5
	n := cs.Cluster(0).Rows
	g := mat.New(n, n)
	r := rng.New(11)

	st := NewStratStack(cs, true)
	start := obs.Total(obs.OpUDTSteps)
	for c := 0; c < nc; c++ {
		mutateCluster(f, c, cs.K, r)
		cs.Recompute(f, c)
		st.Advance()
		st.GreenInto(g)
	}
	stackSteps := obs.Total(obs.OpUDTSteps) - start

	start = obs.Total(obs.OpUDTSteps)
	for c := 0; c < nc; c++ {
		GreenInto(g, cs.Chain((c+1)%nc), true)
	}
	rebuildSteps := obs.Total(obs.OpUDTSteps) - start

	if want := int64(nc * nc); rebuildSteps != want {
		t.Fatalf("rebuild path: %d UDT steps, want %d", rebuildSteps, want)
	}
	// NC advances + (NC-1) combines + (NC-1) end-of-sweep suffix rebuild.
	if want := int64(3*nc - 2); stackSteps != want {
		t.Fatalf("stack path: %d UDT steps, want %d", stackSteps, want)
	}
	if stackSteps >= rebuildSteps {
		t.Fatalf("stack (%d steps) not cheaper than rebuild (%d steps)", stackSteps, rebuildSteps)
	}
}

// TestStratStackRetarget resizes a stack onto cluster sets of a different k
// (the autopilot path) and checks every boundary of the retargeted stack
// against a full-chain rebuild, in both resize directions.
func TestStratStackRetarget(t *testing.T) {
	p, f, cs := stackSetup(t, 3, 3, 4, 2, 12, 4, 53)
	st := NewStratStack(cs, true)
	n := cs.Cluster(0).Rows
	got, want := mat.New(n, n), mat.New(n, n)
	r := rng.New(19)

	// Advance partway so Retarget must discard a nontrivial prefix.
	mutateCluster(f, 0, cs.K, r)
	cs.Recompute(f, 0)
	st.Advance()

	for _, k := range []int{2, 6, 3} {
		cs = NewClusterSet(p, f, hubbard.Up, k)
		st.Retarget(cs)
		if st.filled != 0 {
			t.Fatalf("k=%d: Retarget left filled=%d, want 0", k, st.filled)
		}
		for c := 0; c < cs.NC; c++ {
			mutateCluster(f, c, cs.K, r)
			cs.Recompute(f, c)
			st.Advance()
			st.GreenInto(got)
			GreenInto(want, cs.Chain((c+1)%cs.NC), true)
			if d := mat.RelDiff(got, want); d > 1e-12 {
				t.Fatalf("k=%d boundary %d: retargeted stack vs rebuild rel diff %g", k, c, d)
			}
		}
	}
}

// TestStratStackAutoRebuild checks that the stack survives wrap-around: the
// suffix decompositions are rebuilt when the prefix completes, so a second
// sweep sees suffixes of the *current* clusters.
func TestStratStackAutoRebuild(t *testing.T) {
	_, f, cs := stackSetup(t, 2, 2, 6, 2, 8, 4, 41)
	st := NewStratStack(cs, true)
	n := cs.Cluster(0).Rows
	got, want := mat.New(n, n), mat.New(n, n)
	r := rng.New(3)

	// Sweep 1 mutates every cluster; sweep 2 must still agree, which only
	// works if the suffixes were rebuilt from the mutated clusters. The
	// prefix-complete evaluation (boundary 0) is arithmetically the same
	// incremental chain as a full stratification, so it must match exactly.
	for sweep := 0; sweep < 2; sweep++ {
		for c := 0; c < cs.NC; c++ {
			mutateCluster(f, c, cs.K, r)
			cs.Recompute(f, c)
			st.Advance()
			st.GreenInto(got)
		}
		GreenInto(want, cs.Chain(0), true)
		if d := mat.RelDiff(got, want); d != 0 {
			t.Fatalf("sweep %d: post-rebuild boundary-0 G not identical to full chain: %g", sweep, d)
		}
	}
}

// TestStratStackLazyRoll: a stack whose whole-chain evaluation leaves the
// roll undone (GreenUnrolledInto) rolls at its next Advance, and matches an
// eagerly rolled stack (GreenInto) bit for bit at every boundary of three
// sweeps; Rolled is false only between the two.
func TestStratStackLazyRoll(t *testing.T) {
	_, f, cs := stackSetup(t, 2, 2, 6, 2, 8, 2, 43)
	eager, lazy := NewStratStack(cs, true), NewStratStack(cs, true)
	n := cs.Cluster(0).Rows
	got, want := mat.New(n, n), mat.New(n, n)
	r := rng.New(5)
	for sweep := 0; sweep < 3; sweep++ {
		for c := 0; c < cs.NC; c++ {
			mutateCluster(f, c, cs.K, r)
			cs.Recompute(f, c)
			eager.Advance()
			lazy.Advance()
			_ = eager.GreenInto(want)
			_ = lazy.GreenUnrolledInto(got)
			if !slices.Equal(got.Data, want.Data) {
				t.Fatalf("sweep %d boundary %d: lazily rolled G differs from the eager stack's", sweep, c+1)
			}
			if last := c == cs.NC-1; lazy.Rolled() == last || !eager.Rolled() {
				t.Fatalf("sweep %d boundary %d: Rolled %v (eager %v)", sweep, c+1, lazy.Rolled(), eager.Rolled())
			}
		}
	}
}

// TestRebuildTransposedOperandBitwise: Rebuild feeds each cluster to its
// extension step as the GEMM's transposed operand; the suffix snapshots
// equal bit for bit those built from stored transposes, at the job sizes
// and under both pivoting policies.
func TestRebuildTransposedOperandBitwise(t *testing.T) {
	for _, nx := range []int{4, 6} {
		for _, prePivot := range []bool{true, false} {
			_, _, cs := stackSetup(t, nx, nx, 4, 2, 16, 4, 59)
			st := NewStratStack(cs, prePivot)
			n := st.n
			ref := UDT{Q: mat.New(n, n), D: make([]float64, n), T: mat.New(n, n)}
			bt, work, r, tNew := mat.New(n, n), mat.New(n, n), mat.New(n, n), mat.New(n, n)
			for j := st.nc - 1; j >= 1; j-- {
				cs.Cluster(j).TransposeInto(bt)
				if j == st.nc-1 {
					initUDT(&ref, bt, work, r)
				} else {
					extendUDT(&ref, bt, false, prePivot, work, r, tNew)
				}
				s := &st.suf[j]
				if !slices.Equal(s.Q.Data, ref.Q.Data) || !slices.Equal(s.D, ref.D) || !slices.Equal(s.T.Data, ref.T.Data) {
					t.Fatalf("N=%d prePivot=%v: suffix %d differs from the stored-transpose build", n, prePivot, j)
				}
			}
		}
	}
}
