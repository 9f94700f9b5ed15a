package measure

import (
	"math"
	"testing"

	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/rng"
)

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
	ps := MeasurePairSusceptibility(lat, p, f, 1, 10)
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
	ps := MeasurePairSusceptibility(lat, p, f, 1, 10)
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
		acc += MeasurePairSusceptibility(lat, p, f, 4, 8).PairQ0()
	}
	acc /= samples
	free := freePairQ0(lat, beta)
	if acc <= free {
		t.Fatalf("attractive P_s %v should exceed free value %v", acc, free)
	}
	t.Logf("P_s(q=0): attractive %.3f vs free %.3f", acc, free)
}
