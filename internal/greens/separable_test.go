package greens

import (
	"fmt"
	"testing"

	"questgo/internal/blas"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// denseWrapper is NewWrapper held to the dense kinetic products at any N.
func denseWrapper(p *hubbard.Propagator) *Wrapper {
	w := NewWrapper(p)
	w.sep = nil
	return w
}

// sepWrapper is NewWrapper on the separable products at any N.
func sepWrapper(p *hubbard.Propagator) *Wrapper {
	w := NewWrapper(p)
	w.sep = p.Sep
	return w
}

// BenchmarkWrapSeparable times the host wrap and the block product (one
// k = 10 cluster, nine kinetic products and the separable path's final
// transpose) dense against separable at the square lattices around the
// sepMinN crossover. Run it at -cpu 1: in a sweep from N = 36 up the two
// spin sectors' wraps and products fork onto the two cores, so each runs
// on one.
//
//	go test ./internal/greens -run NONE -bench WrapSeparable -cpu 1
func BenchmarkWrapSeparable(b *testing.B) {
	for _, l := range []int{6, 8, 10, 12, 16} {
		lat := lattice.NewSquare(l, l, 1.0)
		m, err := hubbard.NewModel(lat, 4, 0, 4, 40)
		if err != nil {
			b.Fatal(err)
		}
		p := hubbard.NewPropagator(m)
		f := hubbard.NewRandomField(m.L, m.N(), rng.New(5))
		g0, dst := randomDense(rng.New(7), m.N()), mat.New(m.N(), m.N())
		g := g0.Clone()
		for _, path := range []struct {
			name string
			w    *Wrapper
		}{{"dense", denseWrapper(p)}, {"sep", sepWrapper(p)}} {
			w := path.w
			b.Run(fmt.Sprintf("N=%d/wrap/%s", m.N(), path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if i%m.L == 0 {
						// Restart the chain of wraps every L: their V
						// scalings would otherwise walk G towards
						// subnormals and overflow.
						g.CopyFrom(g0)
					}
					w.Wrap(g, f, hubbard.Up, i%m.L)
				}
			})
			b.Run(fmt.Sprintf("N=%d/cluster10/%s", m.N(), path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.Cluster(dst, f, hubbard.Up, 0, 10)
				}
			})
		}
	}
}

// kinModel builds the propagator of one lattice at beta = 4, L = 16
// (dtau = 0.25) and the given chemical potential.
func kinModel(t *testing.T, lat *lattice.Lattice, mu float64) (*hubbard.Propagator, *hubbard.Field) {
	t.Helper()
	m, err := hubbard.NewModel(lat, 4, mu, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	return hubbard.NewPropagator(m), hubbard.NewRandomField(m.L, m.N(), rng.New(61))
}

// TestSeparableMatchesDense: the Kronecker-factor products against the
// dense Bkin·X and X·Binv, and the separable wrap and block product against
// the dense ones, to 1e-13 relative, on a rectangular lattice, two-site
// rings (whose one bond is doubled), an anisotropic Ty and mu != 0.
func TestSeparableMatchesDense(t *testing.T) {
	for _, tc := range []struct {
		name string
		lat  *lattice.Lattice
		mu   float64
	}{
		{"16x9", lattice.NewSquare(16, 9, 1), 0},
		{"2x12", lattice.NewSquare(2, 12, 1), 0},
		{"12x2 mu=0.4", lattice.NewSquare(12, 2, 1), 0.4},
		{"7x5 ty=0.5 mu=-0.7", lattice.NewSquare(7, 5, 1).WithTy(0.5), -0.7},
		{"12x12 mu=1.1", lattice.NewSquare(12, 12, 1), 1.1},
	} {
		worst := 0.0
		check := func(what string, d float64) {
			if !(d <= 1e-13) {
				t.Errorf("%s: %s off by %g", tc.name, what, d)
			}
			worst = max(worst, d)
		}
		p, f := kinModel(t, tc.lat, tc.mu)
		sp := p.Sep
		if sp == nil {
			t.Fatalf("%s: no Kronecker factors", tc.name)
		}
		n := p.Model.N()
		x, tmp, got, want := randomDense(rng.New(67), n), mat.New(n, n), mat.New(n, n), mat.New(n, n)

		kronLeft(sp, x, tmp, got)
		got.Scale(sp.Emu)
		blas.Gemm(false, false, 1, p.Bkin, x, 0, want)
		check("separable Bkin·X", mat.RelDiff(got, want))
		kronRight(sp.Nx, sp.EyInvB, sp.ExInvB, x, tmp, got, nil, nil)
		got.Scale(sp.EmuInv)
		blas.Gemm(false, false, 1, x, p.Binv, 0, want)
		check("separable X·Binv", mat.RelDiff(got, want))

		ws, wd := sepWrapper(p), denseWrapper(p)
		for _, sigma := range []hubbard.Spin{hubbard.Up, hubbard.Down} {
			got.CopyFrom(x)
			want.CopyFrom(x)
			ws.Wrap(got, f, sigma, 3)
			wd.Wrap(want, f, sigma, 3)
			check(fmt.Sprintf("sigma=%d wrap", sigma), mat.RelDiff(got, want))
			for _, k := range []int{1, 2, 5} {
				ws.Cluster(got, f, sigma, 2, k)
				wd.Cluster(want, f, sigma, 2, k)
				check(fmt.Sprintf("sigma=%d k=%d block product", sigma, k), mat.RelDiff(got, want))
			}
		}
		t.Logf("%s: largest relative difference %.2g", tc.name, worst)
	}
}

// TestSeparableFallback: diagonal hopping and stacked planes have no
// Kronecker factors, and a separable lattice below sepMinN keeps the dense
// path; on all three NewWrapper's wrap and block product are today's dense
// GemmPacked ones bit for bit, at N = 144 for the first two.
func TestSeparableFallback(t *testing.T) {
	for _, tc := range []struct {
		name    string
		lat     *lattice.Lattice
		factors bool
	}{
		{"12x12 t'=-0.3", lattice.NewSquare(12, 12, 1).WithTPrime(-0.3), false},
		{"6x6x4 layers", lattice.NewMultilayer(6, 6, 4, 1, 0.5), false},
		{"11x13 below sepMinN", lattice.NewSquare(11, 13, 1), true},
	} {
		p, f := kinModel(t, tc.lat, 0.2)
		n := p.Model.N()
		if (p.Sep != nil) != tc.factors {
			t.Fatalf("%s: Kronecker factors present = %v, want %v", tc.name, p.Sep != nil, tc.factors)
		}
		if n >= sepMinN == tc.factors {
			t.Fatalf("%s: N = %d on the wrong side of sepMinN = %d", tc.name, n, sepMinN)
		}
		w := NewWrapper(p)
		if w.sep != nil {
			t.Fatalf("%s: wrapper takes the separable path", tc.name)
		}
		tmp, v, vinv := mat.New(n, n), make([]float64, n), make([]float64, n)
		for _, sigma := range []hubbard.Spin{hubbard.Up, hubbard.Down} {
			got := randomDense(rng.New(71), n)
			want := got.Clone()
			w.Wrap(got, f, sigma, 5)
			blas.GemmPacked(p.BkinA, want, nil, nil, tmp)
			p.VDiag(sigma, f, 5, v)
			for i := range v {
				vinv[i] = 1 / v[i]
			}
			blas.GemmPacked(p.BinvB, tmp, v, vinv, want)
			if !bitsEqual(got, want) {
				t.Fatalf("%s sigma=%d: wrap left the dense path's bits", tc.name, sigma)
			}
			for _, k := range []int{1, 4} {
				w.Cluster(got, f, sigma, 1, k)
				want.CopyFrom(p.Bkin)
				p.VDiag(sigma, f, 1, v)
				want.ScaleRows(v)
				for j := 1; j < k; j++ {
					p.VDiag(sigma, f, 1+j, v)
					blas.GemmPacked(p.BkinA, want, v, nil, tmp)
					want.CopyFrom(tmp)
				}
				if !bitsEqual(got, want) {
					t.Fatalf("%s sigma=%d k=%d: block product left the dense path's bits", tc.name, sigma, k)
				}
			}
		}
	}
}
