package hubbard

import (
	"math"
	"testing"

	"questgo/internal/blas"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

func testModel(t *testing.T, nx, ny int, u, mu, beta float64, l int) *Model {
	t.Helper()
	m, err := NewModel(lattice.NewSquare(nx, ny, 1), u, mu, beta, l)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelDerivedQuantities(t *testing.T) {
	m := testModel(t, 4, 4, 4, 0.2, 8, 40)
	if math.Abs(m.Dtau-0.2) > 1e-15 {
		t.Fatalf("dtau = %v", m.Dtau)
	}
	// cosh(nu) = exp(U*dtau/2) = exp(0.4).
	if math.Abs(math.Cosh(m.Nu)-math.Exp(0.4)) > 1e-14 {
		t.Fatalf("nu = %v", m.Nu)
	}
}

func TestNewModelValidation(t *testing.T) {
	lat := lattice.NewSquare(2, 2, 1)
	if _, err := NewModel(lat, 4, 0, 8, 0); err == nil {
		t.Fatal("L = 0 should fail")
	}
	if _, err := NewModel(lat, 4, 0, -1, 10); err == nil {
		t.Fatal("negative beta should fail")
	}
	if m, err := NewModel(lat, -4, 0, 8, 10); err != nil || !m.Attractive() {
		t.Fatalf("attractive U should be accepted: %v", err)
	}
	if m, _ := NewModel(lat, 4, 0, 8, 10); m.Attractive() {
		t.Fatal("repulsive model misreported as attractive")
	}
}

func TestFieldValues(t *testing.T) {
	f := NewRandomField(5, 9, rng.New(1))
	for l := 0; l < 5; l++ {
		for i := 0; i < 9; i++ {
			if v := f.H[l][i]; v != 1 && v != -1 {
				t.Fatalf("field value %v", v)
			}
		}
	}
	before := f.H[2][3]
	f.Flip(2, 3)
	if f.H[2][3] != -before {
		t.Fatal("Flip failed")
	}
}

func TestFieldCloneIndependent(t *testing.T) {
	f := NewRandomField(3, 4, rng.New(2))
	c := f.Clone()
	f.Flip(0, 0)
	if c.H[0][0] == f.H[0][0] {
		t.Fatal("clone shares storage")
	}
}

func TestPropagatorBBinvInverse(t *testing.T) {
	m := testModel(t, 3, 3, 4, 0.3, 2, 8)
	p := NewPropagator(m)
	prod := mat.New(m.N(), m.N())
	blas.Gemm(false, false, 1, p.Bkin, p.Binv, 0, prod)
	if !prod.EqualApprox(mat.Identity(m.N()), 1e-12) {
		t.Fatal("Bkin * Binv != I")
	}
}

func TestVElemAndAlpha(t *testing.T) {
	m := testModel(t, 2, 2, 4, 0, 2, 8)
	p := NewPropagator(m)
	// V element: exp(sigma*nu*h).
	if math.Abs(p.VElem(Up, 1)-math.Exp(m.Nu)) > 1e-15 {
		t.Fatal("VElem(Up, +1) wrong")
	}
	if math.Abs(p.VElem(Down, 1)-math.Exp(-m.Nu)) > 1e-15 {
		t.Fatal("VElem(Down, +1) wrong")
	}
	if math.Abs(p.VElem(Up, -1)-math.Exp(-m.Nu)) > 1e-15 {
		t.Fatal("VElem(Up, -1) wrong")
	}
	// Alpha: exp(-2*sigma*nu*h) - 1.
	if math.Abs(p.Alpha(Up, 1)-(math.Exp(-2*m.Nu)-1)) > 1e-15 {
		t.Fatal("Alpha(Up, +1) wrong")
	}
	if math.Abs(p.Alpha(Down, -1)-(math.Exp(-2*m.Nu)-1)) > 1e-15 {
		t.Fatal("Alpha(Down, -1) wrong")
	}
}

// TestAlphaBosonRatioExact: the flip amplitudes are tabulated once per
// Propagator; every (sigma, h, sign of U) entry must be the bits the
// per-proposal math.Exp formula gives, or trajectories move.
func TestAlphaBosonRatioExact(t *testing.T) {
	for _, u := range []float64{4, -4, 6.5, -0.3} {
		m := testModel(t, 2, 2, u, 0.1, 2, 8)
		p := NewPropagator(m)
		for _, sigma := range []Spin{Up, Down} {
			for _, h := range []float64{1, -1} {
				s := sigma
				if u < 0 {
					s = Up
				}
				want := math.Exp(-2*float64(s)*m.Nu*h) - 1
				if got := p.Alpha(sigma, h); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("U=%v Alpha(%d, %v) = %x, formula gives %x", u, sigma, h, got, want)
				}
			}
		}
		for _, h := range []float64{1, -1} {
			want := 1.0
			if u < 0 {
				want = math.Exp(2 * m.Nu * h)
			}
			if got := p.BosonRatio(h); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("U=%v BosonRatio(%v) = %x, formula gives %x", u, h, got, want)
			}
		}
	}
}

func TestBMatrixEqualsScaledKinetic(t *testing.T) {
	m := testModel(t, 3, 3, 4, 0.1, 2, 8)
	p := NewPropagator(m)
	f := NewRandomField(m.L, m.N(), rng.New(3))
	b := p.BMatrix(Up, f, 0)
	for i := 0; i < m.N(); i++ {
		v := p.VElem(Up, f.H[0][i])
		for j := 0; j < m.N(); j++ {
			want := v * p.Bkin.At(i, j)
			if math.Abs(b.At(i, j)-want) > 1e-14 {
				t.Fatalf("B(%d,%d) = %v want %v", i, j, b.At(i, j), want)
			}
		}
	}
}

func TestHSDecouplingIdentity(t *testing.T) {
	// The discrete HS transformation requires, for h = +-1:
	//   exp(-dtau*U*(n_up - 1/2)*(n_dn - 1/2))
	//   = (1/2) * exp(-dtau*U/4) * sum_h exp(nu*h*(n_up - n_dn))
	// Check the scalar identity on all four occupation states.
	m := testModel(t, 2, 2, 4, 0, 2, 8)
	gamma := math.Exp(-m.Dtau * m.U / 4)
	for _, nup := range []float64{0, 1} {
		for _, ndn := range []float64{0, 1} {
			lhs := math.Exp(-m.Dtau * m.U * (nup - 0.5) * (ndn - 0.5))
			rhs := 0.5 * gamma * (math.Exp(m.Nu*(nup-ndn)) + math.Exp(-m.Nu*(nup-ndn)))
			if math.Abs(rhs/lhs-1) > 1e-12 {
				t.Fatalf("HS identity broken for (%v,%v): lhs %v rhs %v", nup, ndn, lhs, rhs)
			}
		}
	}
}

// TestSeparableFactors: on a single plane without t' the factors rebuild
// the dense propagators, e^{+dtau mu}·E_y ⊗ E_x = Bkin and
// e^{-dtau mu}·E_y^{-1} ⊗ E_x^{-1} = Binv (sites x-fastest), each factor's
// inverse is its inverse, and the factors are symmetric — on a rectangle,
// two-site rings and an anisotropic Ty with mu != 0. Stacked planes,
// diagonal hopping and a one-site side have none.
func TestSeparableFactors(t *testing.T) {
	kron := func(c float64, ey, ex *mat.Dense) *mat.Dense {
		nx, ny := ex.Rows, ey.Rows
		k := mat.New(nx*ny, nx*ny)
		for j := 0; j < nx*ny; j++ {
			for i := 0; i < nx*ny; i++ {
				k.Set(i, j, c*ey.At(i/nx, j/nx)*ex.At(i%nx, j%nx))
			}
		}
		return k
	}
	for _, lat := range []*lattice.Lattice{
		lattice.NewSquare(5, 3, 1),
		lattice.NewSquare(2, 2, 1),
		lattice.NewSquare(4, 6, 1).WithTy(0.3),
	} {
		m, err := NewModel(lat, 4, 0.35, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		p := NewPropagator(m)
		sp := p.Sep
		if sp == nil || sp.Nx != lat.Nx || sp.Ny != lat.Ny {
			t.Fatalf("%dx%d: factors %+v", lat.Nx, lat.Ny, sp)
		}
		if d := mat.RelDiff(kron(sp.Emu, sp.Ey, sp.Ex), p.Bkin); !(d <= 1e-14) {
			t.Errorf("%dx%d: e^{dtau mu} E_y ⊗ E_x off Bkin by %g", lat.Nx, lat.Ny, d)
		}
		if d := mat.RelDiff(kron(sp.EmuInv, sp.EyInv, sp.ExInv), p.Binv); !(d <= 1e-14) {
			t.Errorf("%dx%d: e^{-dtau mu} E_y^-1 ⊗ E_x^-1 off Binv by %g", lat.Nx, lat.Ny, d)
		}
		for _, f := range [][2]*mat.Dense{{sp.Ex, sp.ExInv}, {sp.Ey, sp.EyInv}} {
			prod := mat.New(f[0].Rows, f[0].Rows)
			blas.Gemm(false, false, 1, f[0], f[1], 0, prod)
			if d := mat.RelDiff(prod, mat.Identity(f[0].Rows)); !(d <= 1e-14) {
				t.Errorf("%dx%d: factor times inverse off I by %g", lat.Nx, lat.Ny, d)
			}
			if d := mat.RelDiff(f[0], f[0].Transpose()); !(d <= 1e-15) {
				t.Errorf("%dx%d: factor asymmetric by %g", lat.Nx, lat.Ny, d)
			}
		}
	}
	for _, lat := range []*lattice.Lattice{
		lattice.NewMultilayer(3, 3, 2, 1, 0.5),
		lattice.NewSquare(4, 4, 1).WithTPrime(-0.2),
		lattice.NewSquare(6, 1, 1),
	} {
		m, err := NewModel(lat, 4, 0, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		if sp := NewPropagator(m).Sep; sp != nil {
			t.Errorf("%dx%dx%d t'=%g: Kronecker factors where K has none", lat.Nx, lat.Ny, lat.Layers, lat.TPrime)
		}
	}
}
