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
// sepMinN crossover, and from 8x8 up the separable wrap's two sides alone:
// left is (E_y ⊗ E_x)·G, right G·(E_y^{-1} ⊗ E_x^{-1}) with V_l and
// V_l^{-1} in its write-back. Run it at -cpu 1: in a sweep from N = 36 up
// the two spin sectors' wraps and products fork onto the two cores, so each
// runs on one.
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
		if l < 8 {
			continue
		}
		sp, w := p.Sep, sepWrapper(p)
		p.VDiag(hubbard.Up, f, 0, w.v)
		for i, v := range w.v {
			w.vinv[i] = 1 / v
		}
		b.Run(fmt.Sprintf("N=%d/left/sep", m.N()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blas.KronLeft(sp.Ex, sp.Ey, g0, w.tmp.Data, dst)
			}
		})
		b.Run(fmt.Sprintf("N=%d/right/sep", m.N()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				blas.KronRight(sp.ExInv, sp.EyInv, g0, w.v, w.vinv, w.tmp.Data, dst)
			}
		})
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

		blas.KronLeft(sp.Ex, sp.Ey, x, tmp.Data, got)
		got.Scale(sp.Emu)
		blas.Gemm(false, false, 1, p.Bkin, x, 0, want)
		check("separable Bkin·X", mat.RelDiff(got, want))
		blas.KronRight(sp.ExInv, sp.EyInv, x, nil, nil, tmp.Data, got)
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

// twoStageLeft and twoStageRight are the separable products as they ran
// before blas.KronLeft and KronRight fused their stages: each stage a
// GemmPacked through the scratch tmp over a view of the operands' storage —
// left x on X as Nx x (Ny·N), left y on every Nx x Ny block; right y on X
// as (N·Nx) x Ny, right x on every N x Nx column block with the scalings.
func twoStageLeft(sp *hubbard.Separable, x, tmp, out *mat.Dense) {
	n := x.Rows
	view := func(m *mat.Dense) *mat.Dense {
		return &mat.Dense{Rows: sp.Nx, Cols: sp.Ny * n, Stride: sp.Nx, Data: m.Data}
	}
	tv, ov := view(tmp), view(out)
	blas.GemmPacked(blas.PackA(sp.Ex), view(x), nil, nil, tv)
	ey := blas.PackB(sp.Ey)
	for b := 0; b < n; b++ {
		blas.GemmPacked(ey, tv.View(0, b*sp.Ny, sp.Nx, sp.Ny), nil, nil, ov.View(0, b*sp.Ny, sp.Nx, sp.Ny))
	}
}

func twoStageRight(nx int, fy, fx *mat.Dense, x, tmp, out *mat.Dense, r, s []float64) {
	n, ny := x.Rows, fy.Rows
	view := func(m *mat.Dense) *mat.Dense { return &mat.Dense{Rows: n * nx, Cols: ny, Stride: n * nx, Data: m.Data} }
	blas.GemmPacked(blas.PackB(fy), view(x), nil, nil, view(tmp))
	px := blas.PackB(fx)
	for b := 0; b < ny; b++ {
		var sb []float64
		if s != nil {
			sb = s[b*nx : (b+1)*nx]
		}
		blas.GemmPacked(px, tmp.View(0, b*nx, n, nx), r, sb, out.View(0, b*nx, n, nx))
	}
}

// TestSeparableBitsMatchTwoStage: the separable wrap and block product,
// now one fused Kronecker-factor pass per side, store the bits of the
// two-stage composition they replaced, on the 12x12, 16x9 and 16x16
// planes, both spins, μ ≠ 0.
func TestSeparableBitsMatchTwoStage(t *testing.T) {
	for _, d := range [][2]int{{12, 12}, {16, 9}, {16, 16}} {
		p, f := kinModel(t, lattice.NewSquare(d[0], d[1], 1), 0.3)
		sp, n := p.Sep, p.Model.N()
		w := NewWrapper(p)
		if w.sep == nil {
			t.Fatalf("%dx%d: wrapper on the dense path", d[0], d[1])
		}
		tmp, v, vinv := mat.New(n, n), make([]float64, n), make([]float64, n)
		for _, sigma := range []hubbard.Spin{hubbard.Up, hubbard.Down} {
			got := randomDense(rng.New(73), n)
			want := got.Clone()
			w.Wrap(got, f, sigma, 6)
			p.VDiag(sigma, f, 6, v)
			for i := range v {
				vinv[i] = 1 / v[i]
			}
			twoStageLeft(sp, want, tmp, want)
			twoStageRight(sp.Nx, sp.EyInv, sp.ExInv, want, tmp, want, v, vinv)
			if !bitsEqual(got, want) {
				t.Fatalf("%dx%d sigma=%d: wrap differs from the two-stage composition", d[0], d[1], sigma)
			}
			for _, k := range []int{1, 3, 10} {
				w.Cluster(got, f, sigma, 2, k)
				at := mat.New(n, n)
				at.CopyFrom(p.Bkin)
				p.VDiag(sigma, f, 2, v)
				at.ScaleCols(v)
				for j := 1; j < k; j++ {
					p.VDiag(sigma, f, 2+j, v)
					for i := range v {
						v[i] *= sp.Emu
					}
					twoStageRight(sp.Nx, sp.Ey, sp.Ex, at, want, at, nil, v)
				}
				at.TransposeInto(want)
				if !bitsEqual(got, want) {
					t.Fatalf("%dx%d sigma=%d k=%d: block product differs from the two-stage composition", d[0], d[1], sigma, k)
				}
			}
		}
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
