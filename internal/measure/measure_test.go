package measure

import (
	"math"
	"runtime"
	"testing"

	"questgo/internal/blas"
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lapack"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// freeGreens builds the exact U = 0 equal-time Green's function
// G = (I + e^{-beta*K})^{-1} for both spins (identical at U = 0),
// spectrally: G = Z diag(1/(1+e^{-beta*eps})) Z^T, which is well
// conditioned for any beta.
func freeGreens(lat *lattice.Lattice, mu, beta float64) *mat.Dense {
	k := lat.KMatrix(mu)
	eps, z := lapack.SymEig(k)
	n := lat.N()
	zg := z.Clone()
	gl := make([]float64, n)
	for i, e := range eps {
		gl[i] = 1 / (1 + math.Exp(-beta*e))
	}
	zg.ScaleCols(gl)
	g := mat.New(n, n)
	blas.Gemm(false, true, 1, zg, z, 0, g)
	return g
}

func TestFreeFermionHalfFillingDensity(t *testing.T) {
	lat := lattice.NewSquare(4, 4, 1)
	g := freeGreens(lat, 0, 4)
	e := Measure(lat, g, g, 1)
	if math.Abs(e.Density()-1) > 1e-12 {
		t.Fatalf("half-filled free density = %v", e.Density())
	}
	if math.Abs(e.DensityUp-e.DensityDn) > 1e-13 {
		t.Fatal("spin densities should match")
	}
}

func TestFreeFermionMomentumDistribution(t *testing.T) {
	// <n_k> must equal the Fermi function of eps_k = -2t(cos kx + cos ky) - mu.
	lat := lattice.NewSquare(6, 6, 1)
	mu, beta := 0.3, 3.0
	g := freeGreens(lat, mu, beta)
	e := Measure(lat, g, g, 1)
	nk := e.MomentumDistribution()
	for _, p := range lat.MomentumGrid() {
		eps := -2*(math.Cos(p.Kx)+math.Cos(p.Ky)) - mu
		want := 1 / (1 + math.Exp(beta*eps))
		got := nk[p.Ix+lat.Nx*p.Iy]
		if math.Abs(got-want) > 1e-10 {
			t.Fatalf("n(k=%v,%v) = %v want %v", p.Kx, p.Ky, got, want)
		}
	}
}

func TestFreeFermionKineticEnergy(t *testing.T) {
	// <H_T>/N = (2/N) sum_k eps^hop_k n_F(eps_k) with eps^hop the hopping
	// part only (factor 2 for spin).
	lat := lattice.NewSquare(6, 6, 1)
	beta := 2.5
	g := freeGreens(lat, 0, beta)
	e := Measure(lat, g, g, 1)
	want := 0.0
	for _, p := range lat.MomentumGrid() {
		eps := -2 * (math.Cos(p.Kx) + math.Cos(p.Ky))
		want += 2 * eps / (1 + math.Exp(beta*eps))
	}
	want /= float64(lat.N())
	if math.Abs(e.Kinetic-want) > 1e-10 {
		t.Fatalf("kinetic = %v want %v", e.Kinetic, want)
	}
}

func TestFreeFermionDoubleOccFactorizes(t *testing.T) {
	// At U = 0, <n_up n_dn> = <n_up><n_dn> on every site.
	lat := lattice.NewSquare(4, 4, 1)
	g := freeGreens(lat, 0.2, 2)
	e := Measure(lat, g, g, 1)
	if math.Abs(e.DoubleOcc-e.DensityUp*e.DensityDn) > 1e-12 {
		t.Fatalf("double occupancy %v != %v", e.DoubleOcc, e.DensityUp*e.DensityDn)
	}
}

func TestCzzSumRule(t *testing.T) {
	// sum_d Czz(d) = (1/N) <(sum_r m_z(r))^2> >= 0, and Czz(0) equals the
	// local moment.
	lat := lattice.NewSquare(4, 4, 1)
	g := freeGreens(lat, 0, 3)
	e := Measure(lat, g, g, 1)
	if math.Abs(e.Czz[0]-e.LocalMoment) > 1e-12 {
		t.Fatalf("Czz(0) = %v, local moment = %v", e.Czz[0], e.LocalMoment)
	}
	var total float64
	for _, v := range e.Czz {
		total += v
	}
	if total < -1e-10 {
		t.Fatalf("sum rule violated: total spin correlation %v < 0", total)
	}
}

func TestMeasureOnInteractingConfig(t *testing.T) {
	// Interacting single-configuration measurement must stay physical:
	// density in [0,2], |Czz| maps bounded, structure factor finite.
	lat := lattice.NewSquare(4, 4, 1)
	m, err := hubbard.NewModel(lat, 4, 0, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(m)
	f := hubbard.NewRandomField(m.L, m.N(), rng.New(7))
	bsUp := make([]*mat.Dense, m.L)
	bsDn := make([]*mat.Dense, m.L)
	for i := 0; i < m.L; i++ {
		bsUp[i] = p.BMatrix(hubbard.Up, f, i)
		bsDn[i] = p.BMatrix(hubbard.Down, f, i)
	}
	e := Measure(lat, greens.Green(bsUp), greens.Green(bsDn), 1)
	if e.Density() < 0 || e.Density() > 2 {
		t.Fatalf("density %v unphysical", e.Density())
	}
	if e.LocalMoment < 0 || e.LocalMoment > 2 {
		t.Fatalf("local moment %v unphysical", e.LocalMoment)
	}
	if math.IsNaN(e.AFStructureFactor()) {
		t.Fatal("structure factor NaN")
	}
}

func TestLayerDensity(t *testing.T) {
	lat := lattice.NewMultilayer(4, 4, 2, 1, 0.5)
	g := freeGreens(lat, 0, 2)
	e := Measure(lat, g, g, 1)
	if len(e.LayerDensity) != 2 {
		t.Fatalf("layer count %d", len(e.LayerDensity))
	}
	// Symmetric bilayer at half filling: both layers at density 1.
	for z, d := range e.LayerDensity {
		if math.Abs(d-1) > 1e-12 {
			t.Fatalf("layer %d density %v", z, d)
		}
	}
	avg := (e.LayerDensity[0] + e.LayerDensity[1]) / 2
	if math.Abs(avg-e.Density()) > 1e-12 {
		t.Fatal("layer densities inconsistent with total")
	}
}

func TestFourierPlaneDeltaFunction(t *testing.T) {
	// f(d) = delta_{d,0} transforms to f(k) = 1 for all k.
	lat := lattice.NewSquare(4, 4, 1)
	f := make([]float64, 16)
	f[0] = 1
	out := FourierPlane(lat, f)
	for i, v := range out {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("F[delta](%d) = %v", i, v)
		}
	}
}

func TestFourierPlaneParseval(t *testing.T) {
	// sum_k f(k) = N * f(d=0).
	lat := lattice.NewSquare(4, 6, 1)
	r := rng.New(9)
	f := make([]float64, 24)
	// A symmetric (f(d) = f(-d)) random function, as all our correlators are.
	for dy := 0; dy < 6; dy++ {
		for dx := 0; dx < 4; dx++ {
			v := r.Float64()
			f[dx+4*dy] = v
			f[((4-dx)%4)+4*((6-dy)%6)] = v
		}
	}
	out := FourierPlane(lat, f)
	var sum float64
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-24*f[0]) > 1e-10 {
		t.Fatalf("Parseval check failed: %v vs %v", sum, 24*f[0])
	}
}

func TestAFStructureFactorMatchesGridPoint(t *testing.T) {
	lat := lattice.NewSquare(4, 4, 1)
	g := freeGreens(lat, 0, 3)
	e := Measure(lat, g, g, 1)
	sq := e.SpinStructureFactor()
	// (pi,pi) is grid point (2,2) on a 4x4 lattice.
	if math.Abs(e.AFStructureFactor()-sq[2+4*2]) > 1e-12 {
		t.Fatal("AFStructureFactor disagrees with S(q) grid")
	}
}

// TestMeasureBitwiseAcrossWorkers: the displacement-resolved correlations
// are bit for bit the same at every worker count and on every repeat, and
// equal to the serial per-source sum (ascending sources, one term per pair
// scaled by 1/N) — the order GOMAXPROCS=1 always ran.
func TestMeasureBitwiseAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, lat := range []*lattice.Lattice{lattice.NewSquare(6, 6, 1), lattice.NewSquare(12, 12, 1), lattice.NewMultilayer(6, 4, 2, 1, 0.5)} {
		n, r := lat.N(), rng.New(uint64(lat.N()))
		gup, gdn := mat.New(n, n), mat.New(n, n)
		for _, g := range []*mat.Dense{gup, gdn} {
			for j := 0; j < n; j++ {
				for i := range g.Col(j) {
					g.Col(j)[i] = 2*r.Float64() - 1
				}
			}
		}
		wantG, wantC := serialPairSums(lat, gup, gdn)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 3; rep++ {
				e := Measure(lat, gup, gdn, 1)
				for d := range wantG {
					if math.Float64bits(e.GFun[d]) != math.Float64bits(wantG[d]) || math.Float64bits(e.Czz[d]) != math.Float64bits(wantC[d]) {
						t.Fatalf("N=%d GOMAXPROCS=%d rep %d d=%d: GFun %v Czz %v, want %v %v",
							n, procs, rep, d, e.GFun[d], e.Czz[d], wantG[d], wantC[d])
					}
				}
			}
		}
	}
}

// serialPairSums is the pair loop as one serial pass over sources i and
// their same-layer partners j, accumulating into the displacement of j - i.
func serialPairSums(lat *lattice.Lattice, gup, gdn *mat.Dense) (gfun, czz []float64) {
	n, nx, ny := lat.N(), lat.Nx, lat.Ny
	planeN, inv := nx*ny, 1/float64(lat.N())
	gfun, czz = make([]float64, planeN), make([]float64, planeN)
	for i := 0; i < n; i++ {
		xi, yi, zi := lat.Coords(i)
		mzI := (1 - gup.At(i, i)) - (1 - gdn.At(i, i))
		for jp := 0; jp < planeN; jp++ {
			j := zi*planeN + jp
			xj, yj, _ := lat.Coords(j)
			d := modInt(xj-xi, nx) + nx*modInt(yj-yi, ny)
			var delta float64
			if i == j {
				delta = 1
			}
			gfun[d] += (delta - 0.5*(gup.At(i, j)+gdn.At(i, j))) * inv
			c := mzI * ((1 - gup.At(j, j)) - (1 - gdn.At(j, j)))
			c += (delta - gup.At(i, j)) * gup.At(j, i)
			c += (delta - gdn.At(i, j)) * gdn.At(j, i)
			czz[d] += c * inv
		}
	}
	return gfun, czz
}
