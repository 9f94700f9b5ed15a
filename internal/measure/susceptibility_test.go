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
	chi := mustSusceptibility(t, lat, p, f, 1, 10)
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
		chi := mustSusceptibility(t, lat, p, f, 4, 8)
		acc += chi.ChiAF()
	}
	acc /= samples
	free := freeChiZZ(lat, beta, 2, 2)
	if acc <= free {
		t.Fatalf("interacting chi_AF %v should exceed free value %v", acc, free)
	}
	// chi(q) <= beta S(q), and |C_zz(d)| <= 1 bounds S(pi,pi) by N: a
	// density blown up by a long wrap lands far above.
	if bound := beta * float64(lat.N()); acc > bound {
		t.Fatalf("interacting chi_AF %v exceeds beta*N = %v", acc, bound)
	}
}

// TestSusceptibilityMatchesBigFloat: on an equilibrated low-temperature
// 4x4 field (beta = 8, U = 4, L = 80) every sampled G(tau, tau) of the
// split tracks the 512-bit rotated-chain reference, and chi_zz(d), P_s(d)
// and chi_c(d) match the same scan assembled from 512-bit Green's
// functions. A G(tau, tau) wrapped forward from G(0) through up to L - 1
// slices is off by orders of magnitude here.
func TestSusceptibilityMatchesBigFloat(t *testing.T) {
	const prec = 512
	lat := lattice.NewSquare(4, 4, 1)
	beta, L, every, k := 8.0, 80, 10, 10
	model, err := hubbard.NewModel(lat, 4, 0, beta, L)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(model)
	r := rng.New(37)
	f := hubbard.NewRandomField(L, model.N(), r)
	sw := newTestSweeper(p, f, r)
	for i := 0; i < 50; i++ {
		sw.Sweep()
	}
	got := mustSusceptibility(t, lat, p, f, every, k)

	planeN := lat.Nx * lat.Ny
	want := &Susceptibility{Lat: lat, Beta: beta, ChiD: make([]float64, planeN), PsD: make([]float64, planeN), ChiCD: make([]float64, planeN)}
	weight := model.Dtau * float64(every)
	var chain [2][]*mat.Dense
	for s, sigma := range []hubbard.Spin{hubbard.Up, hubbard.Down} {
		for i := 0; i < L; i++ {
			chain[s] = append(chain[s], p.BMatrix(sigma, f, i))
		}
	}
	g0Up, g0Dn := greens.GreenBigFloat(chain[0], prec), greens.GreenBigFloat(chain[1], prec)
	want.addTau0(weight, g0Up, g0Dn)
	for l := every; l < L; l += every {
		var eq, gt, gr [2]*mat.Dense
		for s, sigma := range []hubbard.Spin{hubbard.Up, hubbard.Down} {
			bs := chain[s]
			gt[s], gr[s] = greens.DisplacedBigFloat(bs, l, prec)
			eq[s] = greens.GreenBigFloat(append(append([]*mat.Dense{}, bs[l:]...), bs[:l]...), prec)
			if d := mat.RelDiff(greens.SplitAt(p, f, sigma, l, k).Equal(), eq[s]); !(d <= 1e-10) {
				t.Errorf("l=%d sigma=%d: split G(tau,tau) rel diff %g from the 512-bit reference", l, sigma, d)
			}
		}
		want.addTau(weight, g0Up, g0Dn, eq[0], eq[1], gt[0], gt[1], gr[0], gr[1])
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"chi_zz", got.ChiD, want.ChiD}, {"P_s", got.PsD, want.PsD}, {"chi_c", got.ChiCD, want.ChiCD}} {
		var diff, scale float64
		for d := range c.want {
			diff = math.Max(diff, math.Abs(c.got[d]-c.want[d]))
			scale = math.Max(scale, math.Abs(c.want[d]))
		}
		if !(diff <= 1e-9*scale) {
			t.Errorf("%s(d) differs from the 512-bit assembly by %g (scale %g)", c.name, diff, scale)
		}
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
		gr := greens.SplitAt(p, f, hubbard.Up, l, 5).Reverse()
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

// freePairQ0 is the exact q = 0 s-wave pair-field susceptibility of free
// electrons: (1/N) sum_k tanh(beta*eps/2) / (2*eps), with beta/4 at eps=0.
func freePairQ0(lat *lattice.Lattice, beta float64) float64 {
	var out float64
	for _, kp := range lat.MomentumGrid() {
		eps := -2 * (math.Cos(kp.Kx) + math.Cos(kp.Ky))
		if math.Abs(eps) < 1e-12 {
			out += beta / 4
		} else {
			out += math.Tanh(beta*eps/2) / (2 * eps)
		}
	}
	return out / float64(lat.N())
}

func TestPairSusceptibilityFreeFermions(t *testing.T) {
	lat := lattice.NewSquare(4, 4, 1)
	beta, L := 3.0, 30
	model, err := hubbard.NewModel(lat, 0, 0, beta, L)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(model)
	f := hubbard.NewRandomField(L, model.N(), rng.New(19))
	ps := mustSusceptibility(t, lat, p, f, 1, 10)
	want := freePairQ0(lat, beta)
	got := ps.PairQ0()
	if math.Abs(got-want) > 0.01*want+0.005 {
		t.Fatalf("P_s(q=0) = %v want %v", got, want)
	}
}

func TestChargeSusceptibilityFreeFermions(t *testing.T) {
	// Free connected charge susceptibility equals the free spin
	// susceptibility (no cross-spin terms at U = 0).
	lat := lattice.NewSquare(4, 4, 1)
	beta, L := 3.0, 30
	model, err := hubbard.NewModel(lat, 0, 0, beta, L)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(model)
	f := hubbard.NewRandomField(L, model.N(), rng.New(23))
	ps := mustSusceptibility(t, lat, p, f, 1, 10)
	// Connected part: the disconnected piece beta*<n>^2 is uniform in
	// displacement; half filling has <n> = 1 exactly.
	conn := make([]float64, len(ps.ChiCD))
	for i, v := range ps.ChiCD {
		conn[i] = v - ps.Beta
	}
	chiQ := FourierPlane(lat, conn)
	for _, kp := range lat.MomentumGrid() {
		want := freeChiZZ(lat, beta, kp.Ix, kp.Iy)
		got := chiQ[kp.Ix+lat.Nx*kp.Iy]
		if math.Abs(got-want) > 0.01*want+0.01 {
			t.Fatalf("chi_c(q=%d,%d) = %v want %v", kp.Ix, kp.Iy, got, want)
		}
	}
}

func TestAttractiveEnhancesPairSusceptibility(t *testing.T) {
	// U < 0 must enhance the q = 0 pair-field susceptibility over the
	// free value on equilibrated configurations.
	lat := lattice.NewSquare(4, 4, 1)
	beta, L := 3.0, 24
	model, err := hubbard.NewModel(lat, -4, 0, beta, L)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(model)
	r := rng.New(29)
	f := hubbard.NewRandomField(L, model.N(), r)
	sw := newTestSweeper(p, f, r)
	for i := 0; i < 20; i++ {
		sw.Sweep()
	}
	var acc float64
	const samples = 5
	for s := 0; s < samples; s++ {
		sw.Sweep()
		acc += mustSusceptibility(t, lat, p, f, 4, 8).PairQ0()
	}
	acc /= samples
	free := freePairQ0(lat, beta)
	if acc <= free {
		t.Fatalf("attractive P_s %v should exceed free value %v", acc, free)
	}
	t.Logf("P_s(q=0): attractive %.3f vs free %.3f", acc, free)
}

// newTestSweeper builds a Metropolis sweeper for equilibration in tests.
func newTestSweeper(p *hubbard.Propagator, f *hubbard.Field, r *rng.Rand) *update.Sweeper {
	return update.NewSweeper(p, f, r, update.Options{ClusterK: 8})
}

// mustSusceptibility is MeasureSusceptibility for configurations whose
// splits are regular: an error fails the test.
func mustSusceptibility(t testing.TB, lat *lattice.Lattice, p *hubbard.Propagator, f *hubbard.Field, every, clusterK int) *Susceptibility {
	t.Helper()
	s, err := MeasureSusceptibility(lat, p, f, every, clusterK)
	if err != nil {
		t.Fatalf("MeasureSusceptibility: %v", err)
	}
	return s
}
