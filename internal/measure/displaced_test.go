package measure

import (
	"math"
	"testing"

	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/rng"
)

func TestMeasureDisplacedFreeFermions(t *testing.T) {
	// At U = 0, G(k, tau) = e^{-tau*eps_k} / (1 + e^{-beta*eps_k}).
	lat := lattice.NewSquare(4, 4, 1)
	beta, L := 4.0, 20
	model, err := hubbard.NewModel(lat, 0, 0, beta, L)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(model)
	f := hubbard.NewRandomField(L, model.N(), rng.New(3))
	d := MeasureDisplaced(lat, p, f, 5, L, 5)
	if len(d.Taus) != 4 {
		t.Fatalf("taus = %v", d.Taus)
	}
	dtau := beta / float64(L)
	for i, l := range d.Taus {
		tau := dtau * float64(l)
		gk := d.GkTau(i)
		for _, kp := range lat.MomentumGrid() {
			eps := -2 * (math.Cos(kp.Kx) + math.Cos(kp.Ky))
			var want float64
			if eps >= 0 {
				want = math.Exp(-tau*eps) / (1 + math.Exp(-beta*eps))
			} else {
				want = math.Exp((beta-tau)*eps) / (1 + math.Exp(beta*eps))
			}
			got := gk[kp.Ix+lat.Nx*kp.Iy]
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("G(k=(%.2f,%.2f), tau=%.2f) = %v want %v", kp.Kx, kp.Ky, tau, got, want)
			}
		}
	}
}

func TestLocalGTauDecays(t *testing.T) {
	// The local propagator must decay monotonically in tau over (0, beta/2)
	// for the free system.
	lat := lattice.NewSquare(4, 4, 1)
	beta, L := 6.0, 24
	model, err := hubbard.NewModel(lat, 0, 0, beta, L)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(model)
	f := hubbard.NewRandomField(L, model.N(), rng.New(4))
	d := MeasureDisplaced(lat, p, f, 2, L/2, 4)
	loc := make([]float64, len(d.GdTau)) // local propagator G(d=0, tau)
	for i, g := range d.GdTau {
		loc[i] = g[0]
	}
	for i := 1; i < len(loc); i++ {
		if loc[i] >= loc[i-1] {
			t.Fatalf("local G(tau) not decaying: %v", loc)
		}
	}
	if loc[0] <= 0 || loc[0] >= 1 {
		t.Fatalf("local G(tau) out of physical range: %v", loc[0])
	}
}

func TestMeasureDisplacedInteracting(t *testing.T) {
	// Interacting configuration: just require physical bounds and the
	// right shapes.
	lat := lattice.NewSquare(2, 2, 1)
	model, err := hubbard.NewModel(lat, 4, 0, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(model)
	f := hubbard.NewRandomField(8, 4, rng.New(5))
	d := MeasureDisplaced(lat, p, f, 1, 8, 4)
	if len(d.Taus) != 8 || len(d.GdTau[0]) != 4 {
		t.Fatalf("shapes: %v %v", d.Taus, len(d.GdTau[0]))
	}
	for i := range d.Taus {
		for _, v := range d.GdTau[i] {
			if math.IsNaN(v) || math.Abs(v) > 10 {
				t.Fatalf("unphysical G(d,tau): %v", v)
			}
		}
	}
}

func TestPairingFreeFermions(t *testing.T) {
	lat := lattice.NewSquare(4, 4, 1)
	g := freeGreens(lat, 0, 3)
	pr := MeasurePairing(lat, g, g)
	// On-site: P_s(0) = (1/N) sum_r G(r,r)^2 (spins identical at U = 0).
	var want float64
	for r := 0; r < lat.N(); r++ {
		want += g.At(r, r) * g.At(r, r)
	}
	want /= float64(lat.N())
	if math.Abs(pr.Ps[0]-want) > 1e-13 {
		t.Fatalf("P_s(0) = %v want %v", pr.Ps[0], want)
	}
	// q = 0 structure factor is a norm, hence non-negative.
	var sf float64
	for _, v := range pr.Ps {
		sf += v
	}
	if sf < 0 {
		t.Fatalf("pair structure factor %v < 0", sf)
	}
}

func TestPairingTranslationConsistency(t *testing.T) {
	// P_s must be symmetric under d -> -d for the spin-symmetric free case.
	lat := lattice.NewSquare(4, 4, 1)
	g := freeGreens(lat, 0.3, 2)
	pr := MeasurePairing(lat, g, g)
	nx := lat.Nx
	for dy := 0; dy < nx; dy++ {
		for dx := 0; dx < nx; dx++ {
			a := pr.Ps[dx+nx*dy]
			b := pr.Ps[((nx-dx)%nx)+nx*((nx-dy)%nx)]
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("P_s not inversion symmetric at (%d,%d): %v vs %v", dx, dy, a, b)
			}
		}
	}
}
