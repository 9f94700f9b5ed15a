package greens

import (
	"math"
	"testing"
	"testing/quick"

	"questgo/internal/blas"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

func randomDense(r *rng.Rand, n int) *mat.Dense {
	m := mat.New(n, n)
	for j := 0; j < n; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 2*r.Float64() - 1
		}
	}
	return m
}

// testChain builds the B_l matrices of a real Hubbard configuration.
func testChain(t *testing.T, nx, ny int, u, beta float64, l int, seed uint64) (*hubbard.Propagator, *hubbard.Field, []*mat.Dense) {
	t.Helper()
	lat := lattice.NewSquare(nx, ny, 1.0)
	m, err := hubbard.NewModel(lat, u, 0, beta, l)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(m)
	f := hubbard.NewRandomField(l, m.N(), rng.New(seed))
	bs := make([]*mat.Dense, l)
	for i := 0; i < l; i++ {
		bs[i] = p.BMatrix(hubbard.Up, f, i)
	}
	return p, f, bs
}

func TestUDTReconstructsShortProduct(t *testing.T) {
	_, _, bs := testChain(t, 3, 3, 4, 1, 4, 11)
	// Product B4 B3 B2 B1 directly.
	n := bs[0].Rows
	prod := bs[0].Clone()
	tmp := mat.New(n, n)
	for i := 1; i < len(bs); i++ {
		blas.Gemm(false, false, 1, bs[i], prod, 0, tmp)
		prod, tmp = tmp, prod
	}
	for _, udt := range []*UDT{StratifyQRP(bs), StratifyPrePivot(bs)} {
		rec := udt.Matrix()
		if d := mat.RelDiff(rec, prod); d > 1e-12 {
			t.Fatalf("UDT does not reconstruct the product: rel diff %g", d)
		}
	}
}

// orthoError returns ||Q^T Q - I||_F, the departure of a U factor from
// orthogonality.
func orthoError(q *mat.Dense) float64 {
	n := q.Cols
	s := mat.New(n, n)
	blas.GemmTN(1, q, q, 0, s)
	for i := 0; i < n; i++ {
		s.Set(i, i, s.At(i, i)-1)
	}
	return s.FrobNorm()
}

// TestOrthoError checks the orthogonality of the stratification's U factor:
// ||Q^T Q - I||_F is tiny for a healthy stratification even under extreme
// grading, and O(1) for a deliberately non-orthogonal factor.
func TestOrthoError(t *testing.T) {
	_, _, bs := testChain(t, 4, 4, 6, 8, 40, 17)
	for name, udt := range map[string]*UDT{"qrp": StratifyQRP(bs), "prepivot": StratifyPrePivot(bs)} {
		if e := orthoError(udt.Q); e > 1e-12 {
			t.Fatalf("%s: Q lost orthogonality: ||Q^T Q - I||_F = %g", name, e)
		}
	}
	if e := orthoError(bs[0]); e < 1e-3 {
		t.Fatalf("non-orthogonal factor reported error %g", e)
	}
}

func TestStratifyDGraded(t *testing.T) {
	_, _, bs := testChain(t, 4, 4, 6, 8, 40, 13)
	for name, udt := range map[string]*UDT{"qrp": StratifyQRP(bs), "prepivot": StratifyPrePivot(bs)} {
		for i := 1; i < len(udt.D); i++ {
			if math.Abs(udt.D[i]) > math.Abs(udt.D[i-1])*(1+1e-9) {
				t.Fatalf("%s: D not graded at %d: |%g| > |%g|", name, i, udt.D[i], udt.D[i-1])
			}
		}
		// The dynamic range must be huge for these parameters — that is
		// the whole reason stratification exists.
		ratio := math.Abs(udt.D[0]) / math.Abs(udt.D[len(udt.D)-1])
		if ratio < 1e8 {
			t.Fatalf("%s: expected strongly graded D, ratio %g", name, ratio)
		}
	}
}

func TestGreenMatchesNaiveShortChain(t *testing.T) {
	// For a short, mild chain the naive inversion is accurate and all
	// three evaluations must coincide.
	_, _, bs := testChain(t, 3, 3, 2, 0.5, 4, 17)
	gn := GreenNaive(bs)
	g2 := GreenQRP(bs)
	g3 := Green(bs)
	if d := mat.RelDiff(g2, gn); d > 1e-11 {
		t.Fatalf("Algorithm 2 vs naive: rel diff %g", d)
	}
	if d := mat.RelDiff(g3, gn); d > 1e-11 {
		t.Fatalf("Algorithm 3 vs naive: rel diff %g", d)
	}
}

func TestAlg3MatchesAlg2LongChain(t *testing.T) {
	// The paper's Figure 2 claim: at beta = 8..32 and U up to 8 the two
	// stratifications agree to ~1e-12 relative difference in G.
	for _, u := range []float64{2, 4, 8} {
		_, _, bs := testChain(t, 4, 4, u, 8, 40, 19)
		g2 := GreenQRP(bs)
		g3 := Green(bs)
		if d := mat.RelDiff(g3, g2); d > 1e-9 {
			t.Fatalf("U=%g: Alg2 vs Alg3 rel diff %g", u, d)
		}
	}
}

func TestStratifiedMatchesBigFloatAndNaiveFails(t *testing.T) {
	// Small lattice, long chain, strong coupling: the float64 naive
	// product/inverse must have lost essentially all accuracy while both
	// stratified evaluations track the 256-bit reference.
	_, _, bs := testChain(t, 2, 2, 8, 10, 50, 23)
	ref := GreenBigFloat(bs, 256)
	g2 := GreenQRP(bs)
	g3 := Green(bs)
	gn := GreenNaive(bs)
	d2 := mat.RelDiff(g2, ref)
	d3 := mat.RelDiff(g3, ref)
	dn := mat.RelDiff(gn, ref)
	if d2 > 1e-10 {
		t.Fatalf("Algorithm 2 inaccurate vs big.Float: %g", d2)
	}
	if d3 > 1e-10 {
		t.Fatalf("Algorithm 3 inaccurate vs big.Float: %g", d3)
	}
	if dn < 1e-6 {
		t.Fatalf("naive inversion unexpectedly accurate (%g); test not probing instability", dn)
	}
	t.Logf("rel err vs 256-bit reference: alg2=%.2e alg3=%.2e naive=%.2e", d2, d3, dn)
}

func TestGreenIdentityChain(t *testing.T) {
	// With B = I, G = (I + I)^{-1} = I/2.
	n := 6
	bs := []*mat.Dense{mat.Identity(n), mat.Identity(n), mat.Identity(n)}
	g := Green(bs)
	want := mat.Identity(n)
	want.Scale(0.5)
	if !g.EqualApprox(want, 1e-13) {
		t.Fatal("G of identity chain should be I/2")
	}
}

func TestWrapMatchesFreshGreen(t *testing.T) {
	p, f, bs := testChain(t, 3, 3, 4, 2, 8, 29)
	// G_0 = (I + B8...B1)^{-1}; wrap by B_1 gives
	// G_1 = (I + B1 B8 ... B2)^{-1}, which we also evaluate fresh.
	g := Green(bs)
	w := NewWrapper(p)
	w.Wrap(g, f, hubbard.Up, 0)
	rot := append(append([]*mat.Dense{}, bs[1:]...), bs[0])
	fresh := Green(rot)
	if d := mat.RelDiff(g, fresh); d > 1e-9 {
		t.Fatalf("wrapped vs fresh G: rel diff %g", d)
	}
}

func TestWrapInverseRoundTrip(t *testing.T) {
	p, f, bs := testChain(t, 3, 3, 4, 2, 8, 31)
	g := Green(bs)
	orig := g.Clone()
	w := NewWrapper(p)
	w.Wrap(g, f, hubbard.Up, 3)
	w.WrapInverse(g, f, hubbard.Up, 3)
	if d := mat.RelDiff(g, orig); d > 1e-10 {
		t.Fatalf("Wrap/WrapInverse round trip: rel diff %g", d)
	}
}

func TestClusterProductMatchesSliceProduct(t *testing.T) {
	p, f, bs := testChain(t, 3, 3, 4, 2, 8, 37)
	cs := NewClusterSet(p, f, hubbard.Up, 4)
	if cs.NC != 2 {
		t.Fatalf("NC = %d", cs.NC)
	}
	// Bhat_1 = B4 B3 B2 B1.
	n := bs[0].Rows
	prod := bs[0].Clone()
	tmp := mat.New(n, n)
	for i := 1; i < 4; i++ {
		blas.Gemm(false, false, 1, bs[i], prod, 0, tmp)
		prod, tmp = tmp, prod
	}
	if d := mat.RelDiff(cs.Cluster(0), prod); d > 1e-13 {
		t.Fatalf("cluster 0 mismatch: %g", d)
	}
}

func TestClusteredGreenMatchesUnclustered(t *testing.T) {
	p, f, bs := testChain(t, 3, 3, 4, 4, 16, 41)
	g1 := Green(bs) // k = 1: every slice its own matrix
	cs := NewClusterSet(p, f, hubbard.Up, 4)
	g4 := cs.GreenAt(0, true)
	if d := mat.RelDiff(g4, g1); d > 1e-10 {
		t.Fatalf("clustered (k=4) vs unclustered G: rel diff %g", d)
	}
	g4qrp := cs.GreenAt(0, false)
	if d := mat.RelDiff(g4qrp, g1); d > 1e-10 {
		t.Fatalf("clustered QRP vs unclustered G: rel diff %g", d)
	}
}

func TestClusterChainRotation(t *testing.T) {
	p, f, _ := testChain(t, 2, 2, 4, 2, 8, 43)
	cs := NewClusterSet(p, f, hubbard.Up, 2)
	chain := cs.Chain(1)
	if len(chain) != 4 {
		t.Fatalf("chain length %d", len(chain))
	}
	if chain[0] != cs.Cluster(1) || chain[3] != cs.Cluster(0) {
		t.Fatal("Chain(1) should start at cluster 1 and end at cluster 0")
	}
}

func TestClusterRecomputeTracksFieldChange(t *testing.T) {
	p, f, _ := testChain(t, 3, 3, 4, 2, 8, 47)
	cs := NewClusterSet(p, f, hubbard.Up, 4)
	f.Flip(1, 3) // slice 1 lives in cluster 0
	cs.Recompute(f, 0)
	// Rebuild from scratch and compare.
	cs2 := NewClusterSet(p, f, hubbard.Up, 4)
	if d := mat.RelDiff(cs.Cluster(0), cs2.Cluster(0)); d > 1e-14 {
		t.Fatalf("recomputed cluster differs from fresh: %g", d)
	}
	if d := mat.RelDiff(cs.Cluster(1), cs2.Cluster(1)); d > 1e-14 {
		t.Fatalf("untouched cluster changed: %g", d)
	}
}

func TestGreenBigFloatIdentity(t *testing.T) {
	n := 4
	bs := []*mat.Dense{mat.Identity(n), mat.Identity(n)}
	g := GreenBigFloat(bs, 128)
	want := mat.Identity(n)
	want.Scale(0.5)
	if !g.EqualApprox(want, 1e-15) {
		t.Fatal("big.Float G of identity chain should be I/2")
	}
}

// Property: for random mild chains, Alg2 and Alg3 agree with the naive
// inversion (all matrices well conditioned, short products).
func TestQuickGreenConsistency(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) ^ 0xfeed)
		n := 2 + r.Intn(8)
		l := 1 + r.Intn(4)
		bs := make([]*mat.Dense, l)
		for i := range bs {
			b := randomDense(r, n)
			// Shift towards identity to keep I + P well conditioned.
			for d := 0; d < n; d++ {
				b.Set(d, d, b.At(d, d)+2)
			}
			bs[i] = b
		}
		gn := GreenNaive(bs)
		g3 := Green(bs)
		g2 := GreenQRP(bs)
		return mat.RelDiff(g3, gn) < 1e-9 && mat.RelDiff(g2, gn) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
