package measure

import (
	"math"
	"testing"

	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
	"questgo/internal/update"
)

// freeChiZZ computes the exact static spin susceptibility of free
// electrons on the lattice: chi_zz(q) = (2/N) sum_k
// [f(eps_k) - f(eps_{k+q})]/(eps_{k+q} - eps_k), with the degenerate limit
// beta f (1-f).
func freeChiZZ(lat *lattice.Lattice, beta float64, qx, qy int) float64 {
	nx, ny := lat.Nx, lat.Ny
	eps := func(ix, iy int) float64 {
		kx := 2 * math.Pi * float64(ix) / float64(nx)
		ky := 2 * math.Pi * float64(iy) / float64(ny)
		return -2 * (math.Cos(kx) + math.Cos(ky))
	}
	f := func(e float64) float64 { return 1 / (1 + math.Exp(beta*e)) }
	var chi float64
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			e1 := eps(ix, iy)
			e2 := eps(ix+qx, iy+qy)
			if math.Abs(e1-e2) < 1e-12 {
				fe := f(e1)
				chi += beta * fe * (1 - fe)
			} else {
				chi += (f(e1) - f(e2)) / (e2 - e1)
			}
		}
	}
	return 2 * chi / float64(nx*ny)
}

func TestSusceptibilityFreeFermions(t *testing.T) {
	// At U = 0 the measured chi_zz(q) must match the Lindhard-style exact
	// values within Trotter error (the HS field drops out entirely).
	lat := lattice.NewSquare(4, 4, 1)
	beta, L := 3.0, 30
	model, err := hubbard.NewModel(lat, 0, 0, beta, L)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(model)
	f := hubbard.NewRandomField(L, model.N(), rng.New(11))
	chi := MeasureSusceptibility(lat, p, f, 1, 10)
	chiQ := FourierPlane(lat, chi.ChiD)
	for _, kp := range lat.MomentumGrid() {
		want := freeChiZZ(lat, beta, kp.Ix, kp.Iy)
		got := chiQ[kp.Ix+lat.Nx*kp.Iy]
		if math.Abs(got-want) > 0.01*want+0.005 {
			t.Fatalf("chi(q=%d,%d) = %v want %v", kp.Ix, kp.Iy, got, want)
		}
	}
	// Consistency of the helpers.
	if math.Abs(chi.ChiAF()-chiQ[2+4*2]) > 1e-12 {
		t.Fatal("ChiAF inconsistent with grid")
	}
	if math.Abs(chi.ChiUniform()-chiQ[0]) > 1e-12 {
		t.Fatal("ChiUniform inconsistent with grid")
	}
}

func TestSusceptibilityInteractingEnhancedAtAF(t *testing.T) {
	// Repulsion at half filling enhances chi(pi,pi) over the free value
	// on typical configurations drawn from a short equilibrated chain.
	lat := lattice.NewSquare(4, 4, 1)
	beta, L := 3.0, 24
	model, err := hubbard.NewModel(lat, 4, 0, beta, L)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(model)
	r := rng.New(13)
	f := hubbard.NewRandomField(L, model.N(), r)
	// Equilibrate briefly.
	swDrv := newTestSweeper(p, f, r)
	for i := 0; i < 20; i++ {
		swDrv.Sweep()
	}
	var acc float64
	const samples = 5
	for s := 0; s < samples; s++ {
		swDrv.Sweep()
		chi := MeasureSusceptibility(lat, p, f, 4, 8)
		acc += chi.ChiAF()
	}
	acc /= samples
	free := freeChiZZ(lat, beta, 2, 2)
	if acc <= free {
		t.Fatalf("interacting chi_AF %v should exceed free value %v", acc, free)
	}
}

func TestDisplacedGreenReverseFreeFermions(t *testing.T) {
	// G(0, tau)(k) = -e^{tau*eps} f(eps) for free electrons.
	lat := lattice.NewSquare(4, 4, 1)
	beta, L := 4.0, 20
	model, err := hubbard.NewModel(lat, 0, 0, beta, L)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(model)
	f := hubbard.NewRandomField(L, model.N(), rng.New(17))
	dtau := beta / float64(L)
	for _, l := range []int{1, 5, 10, 20} {
		gr := greens.DisplacedGreenReverse(p, f, hubbard.Up, l, 5)
		// Diagonalize via the momentum transform of the translation
		// average of -gr (which equals e^{tau eps} f per momentum).
		avg := displacedGFunFromSingle(lat, gr)
		gk := FourierPlane(lat, avg)
		tau := dtau * float64(l)
		for _, kp := range lat.MomentumGrid() {
			eps := -2 * (math.Cos(kp.Kx) + math.Cos(kp.Ky))
			var want float64
			// -e^{tau*eps}/(1+e^{beta*eps}), computed stably.
			if eps >= 0 {
				want = -math.Exp((tau-beta)*eps) / (1 + math.Exp(-beta*eps))
			} else {
				want = -math.Exp(tau*eps) / (1 + math.Exp(beta*eps))
			}
			got := gk[kp.Ix+lat.Nx*kp.Iy]
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("G(0,tau=%.2f)(k=%.2f,%.2f) = %v want %v", tau, kp.Kx, kp.Ky, got, want)
			}
		}
	}
}

// displacedGFunFromSingle translation-averages a single-spin displaced
// Green's function matrix (same convention as displacedGFun but without
// spin averaging).
func displacedGFunFromSingle(lat *lattice.Lattice, g *mat.Dense) []float64 {
	nx, ny := lat.Nx, lat.Ny
	planeN := nx * ny
	n := lat.N()
	out := make([]float64, planeN)
	inv := 1 / float64(n)
	for r := 0; r < n; r++ {
		xr, yr, zr := lat.Coords(r)
		base := zr * planeN
		for jp := 0; jp < planeN; jp++ {
			j := base + jp
			xj, yj, _ := lat.Coords(j)
			dx := modInt(xj-xr, nx)
			dy := modInt(yj-yr, ny)
			out[dx+nx*dy] += g.At(j, r) * inv
		}
	}
	return out
}

// newTestSweeper builds a Metropolis sweeper for equilibration in tests.
func newTestSweeper(p *hubbard.Propagator, f *hubbard.Field, r *rng.Rand) *update.Sweeper {
	return update.NewSweeper(p, f, r, update.Options{ClusterK: 8})
}
