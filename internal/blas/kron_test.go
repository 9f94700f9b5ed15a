package blas

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"questgo/internal/check"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// kronLeftRef and kronRightRef are the two-stage compositions KronLeft and
// KronRight replace, each stage a GemmPacked into a scratch matrix: left
// x on X viewed as Nx x (Ny·N), then left y on every Nx x Ny block of that;
// right y on X viewed as (N·Nx) x Ny, then right x on every N x Nx column
// block with the scalings. c may be x.
func kronLeftRef(fx, fy, x, c *mat.Dense) {
	nx, ny := fx.Rows, fy.Rows
	n := nx * ny
	tmp := mat.New(n, n)
	xv := mat.Dense{Rows: nx, Cols: ny * n, Stride: nx, Data: x.Data}
	tv := mat.Dense{Rows: nx, Cols: ny * n, Stride: nx, Data: tmp.Data}
	cv := mat.Dense{Rows: nx, Cols: ny * n, Stride: nx, Data: c.Data}
	GemmPacked(PackA(fx), &xv, nil, nil, &tv)
	pb := PackB(fy)
	for b := 0; b < n; b++ {
		GemmPacked(pb, tv.View(0, b*ny, nx, ny), nil, nil, cv.View(0, b*ny, nx, ny))
	}
}

func kronRightRef(fx, fy, x *mat.Dense, r, s []float64, c *mat.Dense) {
	nx, ny := fx.Rows, fy.Rows
	n := nx * ny
	tmp := mat.New(n, n)
	xv := mat.Dense{Rows: n * nx, Cols: ny, Stride: n * nx, Data: x.Data}
	tv := mat.Dense{Rows: n * nx, Cols: ny, Stride: n * nx, Data: tmp.Data}
	GemmPacked(PackB(fy), &xv, nil, nil, &tv)
	pb := PackB(fx)
	for b := 0; b < ny; b++ {
		var sb []float64
		if s != nil {
			sb = s[b*nx : (b+1)*nx]
		}
		GemmPacked(pb, tmp.View(0, b*nx, n, nx), r, sb, c.View(0, b*nx, n, nx))
	}
}

// kronData fills an operand of the Kronecker products by kind: "random"
// entries in [-1, 1); "tiny" ones whose products and sums underflow —
// ±1e-200 beside factor entries of 1e-200, the smallest subnormals, other
// subnormals, signed zeros — between random ones; "nonfinite" random ones
// with ±Inf and NaN sprinkled in.
func kronData(r *rng.Rand, m *mat.Dense, kind string) {
	for i := range m.Data {
		v := 2*r.Float64() - 1
		switch kind {
		case "tiny":
			switch i % 6 {
			case 0:
				v = math.Copysign(1e-200, v)
			case 1:
				v = -math.SmallestNonzeroFloat64
			case 2:
				v = math.Copysign(3e-310, v)
			case 3:
				v = math.Copysign(0, v)
			}
		case "nonfinite":
			switch i % 29 {
			case 4:
				v = math.Inf(1)
			case 11:
				v = math.Inf(-1)
			case 17:
				v = math.NaN()
			}
		}
		m.Data[i] = v
	}
}

// kronFactor is a random n x n factor; for the tiny kind every fifth
// entry is ±1e-200, so that 1e-200 times it underflows.
func kronFactor(r *rng.Rand, n int, kind string) *mat.Dense {
	f := randomDense(r, n, n)
	if kind == "tiny" {
		for i := range f.Data {
			if i%5 == 2 {
				f.Data[i] = math.Copysign(1e-200, f.Data[i])
			}
		}
	}
	return f
}

// kronCheck runs KronLeft and KronRight on one case against the two-stage
// references, out of place and in place, and reports the first
// difference. With the sanitizer built in and a non-finite product, it
// asserts KronLeft's/KronRight's panic instead: the references' first
// stage would panic before its second ran.
//
// Under the portable kernel a NaN only has to meet a NaN: where two NaNs
// meet in one multiply or add, SSE returns its first operand's, and which
// operand comes first is the Go compiler's register choice, which differs
// even between the elements of microKernel4x4's tile. The assembly kernels
// name their operands, so there every bit counts, NaN payloads included.
func kronCheck(fx, fy, x *mat.Dense, r, s []float64) error {
	same := sameBits
	if kernMR != 8 {
		same = sameBitsNaN
	}
	n := x.Rows
	work := make([]float64, KronWork(n))
	for _, side := range []struct {
		name string
		run  func(in, out *mat.Dense)
		ref  func(in, out *mat.Dense)
	}{
		{"KronLeft", func(in, out *mat.Dense) { KronLeft(fx, fy, in, work, out) }, func(in, out *mat.Dense) { kronLeftRef(fx, fy, in, out) }},
		{"KronRight", func(in, out *mat.Dense) { KronRight(fx, fy, in, r, s, work, out) }, func(in, out *mat.Dense) { kronRightRef(fx, fy, in, r, s, out) }},
	} {
		want := mat.New(n, n)
		if msg := panicMessage(func() { side.ref(x, want) }); msg != "" {
			if !check.Enabled {
				return fmt.Errorf("%s reference panicked: %s", side.name, msg)
			}
			got := mat.New(n, n)
			if msg := panicMessage(func() { side.run(x, got) }); !strings.Contains(msg, "blas."+side.name) {
				return fmt.Errorf("%s on a non-finite product: panic %q, want the sanitizer's", side.name, msg)
			}
			continue
		}
		got := mat.New(n, n)
		for i := range got.Data {
			got.Data[i] = math.NaN()
		}
		side.run(x, got)
		if !same(got, want) {
			return fmt.Errorf("%s differs from the two-stage composition", side.name)
		}
		got.CopyFrom(x)
		side.run(got, got)
		if !same(got, want) {
			return fmt.Errorf("%s in place differs from the two-stage composition", side.name)
		}
	}
	return nil
}

// sameBitsNaN is sameBits with every NaN equal to every other.
func sameBitsNaN(x, y *mat.Dense) bool {
	for i, v := range x.Data {
		if w := y.Data[i]; math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
			return false
		}
	}
	return true
}

// TestKronMatchesTwoStage: KronLeft and KronRight hold, element by element,
// the bits of the two GemmPacked stages they replace, under every kernel
// the host offers — factor sizes 1 to 16 with Nx ≠ Ny, two-site rings, the
// 12x12, 16x9 and 16x16 planes of the wrap and a 2x72 plane with a factor
// past 16; unscaled and scaled both ways (with -0 and -2 factors); on
// random data, on data whose sums underflow to -0 through subnormals, and
// with ±Inf and NaN propagated — and allocate nothing.
func TestKronMatchesTwoStage(t *testing.T) {
	shapes := [][2]int{{2, 2}, {2, 12}, {12, 2}, {12, 12}, {16, 9}, {2, 72}, {3, 5}}
	for nx := 1; nx <= 16; nx++ {
		shapes = append(shapes, [2]int{nx, 17 - nx})
	}
	if !raceEnabled {
		// The race detector slows the portable kernel about tenfold, and
		// the kernels share nothing between goroutines.
		shapes = append(shapes, [2]int{16, 16})
	}
	underKernels(func(kernel string) {
		r := rng.New(89)
		for _, sh := range shapes {
			nx, ny := sh[0], sh[1]
			n := nx * ny
			for _, kind := range []string{"random", "tiny", "nonfinite"} {
				fx, fy := kronFactor(r, nx, kind), kronFactor(r, ny, kind)
				x := mat.New(n, n)
				kronData(r, x, kind)
				for _, sc := range []struct {
					name string
					r, s []float64
				}{{"unscaled", nil, nil}, {"both", scaling(r, n, false), scaling(r, n, false)}} {
					if err := kronCheck(fx, fy, x, sc.r, sc.s); err != nil {
						t.Fatalf("%s %dx%d %s %s: %v", kernel, nx, ny, kind, sc.name, err)
					}
				}
			}
		}
	})
	if raceEnabled {
		return
	}
	r := rng.New(97)
	fx, fy, x := randomDense(r, 12, 12), randomDense(r, 12, 12), randomDense(r, 144, 144)
	rs, ss, work := scaling(r, 144, false), scaling(r, 144, false), make([]float64, KronWork(144))
	if allocs := testing.AllocsPerRun(10, func() {
		KronLeft(fx, fy, x, work, x)
		KronRight(fx, fy, x, rs, ss, work, x)
	}); allocs != 0 {
		t.Errorf("KronLeft + KronRight at N = 144 allocated %.1f objects per call, want 0", allocs)
	}
}

// TestKronStageMatchesGemm: one stage call — a batch of strided products,
// operands read where they lie — stores each product's bits as GemmScaled
// would, under every kernel the host offers: every row-block remainder,
// column groups of 4 and single columns, batches with gaps between their
// operands, and factors longer than gemmKC, whose chain splits into k
// slabs as the GEMM's does (the second slab's write-back adds into C, the
// last one scales). Around and between the products' C blocks, sentinels
// must survive.
func TestKronStageMatchesGemm(t *testing.T) {
	const g = 3
	underKernels(func(kernel string) {
		r := rng.New(101)
		for _, sh := range []struct{ rows, k, m, nb int }{
			{1, 1, 1, 1}, {5, 3, 3, 2}, {8, 12, 4, 3}, {12, 12, 12, 2}, {16, 9, 5, 2},
			{17, 4, 9, 3}, {23, 7, 13, 1}, {13, 300, 5, 1}, {8, 513, 9, 2}, {3, 256, 4, 1},
		} {
			lda, ldb, ldc := sh.rows+2, sh.k+1, sh.rows+2*g
			abs, bbs, cbs := lda*sh.k+5, ldb*sh.m+3, ldc*(sh.m+g)
			a := randomDense(r, abs*sh.nb, 1).Data
			b := randomDense(r, bbs*sh.nb, 1).Data
			for _, scaled := range []bool{false, true} {
				var rs, ss []float64
				if scaled {
					rs, ss = scaling(r, sh.rows, false), scaling(r, sh.m*sh.nb, false)
				}
				c := make([]float64, cbs*sh.nb+g*ldc)
				for i := range c {
					c[i] = sentinel
				}
				kronStage(sh.rows, sh.k, sh.m, a, lda, b, ldb, c[g+g*ldc:], ldc, rs, ss, sh.nb, abs, bbs, cbs)
				for p := 0; p < sh.nb; p++ {
					ap := &mat.Dense{Rows: sh.rows, Cols: sh.k, Stride: lda, Data: a[p*abs:]}
					bp := &mat.Dense{Rows: sh.k, Cols: sh.m, Stride: ldb, Data: b[p*bbs:]}
					got := &mat.Dense{Rows: sh.rows, Cols: sh.m, Stride: ldc, Data: c[g+g*ldc+p*cbs:]}
					var sp []float64
					if ss != nil {
						sp = ss[p*sh.m : (p+1)*sh.m]
					}
					want := mat.New(sh.rows, sh.m)
					GemmScaled(false, false, ap, bp, rs, sp, want)
					if !sameBits(got, want) {
						t.Fatalf("%s rows=%d k=%d m=%d product %d of %d scaled=%v: differs from GemmScaled", kernel, sh.rows, sh.k, sh.m, p, sh.nb, scaled)
					}
				}
				for i, v := range c {
					p, off := (i-g*ldc)/cbs, (i-g*ldc)%cbs
					inBlock := i >= g*ldc && p < sh.nb && off%ldc >= g && off%ldc < g+sh.rows && off/ldc < sh.m
					if !inBlock && math.Float64bits(v) != math.Float64bits(sentinel) {
						t.Fatalf("%s rows=%d k=%d m=%d scaled=%v: wrote %v at offset %d, outside every product", kernel, sh.rows, sh.k, sh.m, scaled, v, i)
					}
				}
			}
		}
	})
}

// TestKronShapeChecks: a factor that does not match X, a strided operand
// and a short scratch panic with the kernel's name.
func TestKronShapeChecks(t *testing.T) {
	f3, f4 := mat.New(3, 3), mat.New(4, 4)
	x := mat.New(12, 12)
	for _, tc := range []struct {
		what string
		run  func()
	}{
		{"X not Nx·Ny", func() { KronLeft(f3, f3, x, make([]float64, 144), x) }},
		{"a strided C", func() { KronRight(f3, f4, x, nil, nil, make([]float64, 144), mat.New(13, 12).View(0, 0, 12, 12)) }},
		{"a short scratch", func() { KronLeft(f3, f4, x, make([]float64, KronWork(12)-1), x) }},
		{"a short scaling", func() { KronRight(f3, f4, x, make([]float64, 11), nil, make([]float64, 144), x) }},
	} {
		if msg := panicMessage(tc.run); !strings.Contains(msg, "Kron") && !strings.Contains(msg, "scaling") {
			t.Errorf("%s: panic %q, want the kernel's", tc.what, msg)
		}
	}
}

// BenchmarkKron times KronLeft and KronRight (with both scalings, as the
// wrap's right side runs) on the planes the wrap's gate admits, under
// every kernel the host offers.
//
//	go test ./internal/blas -run NONE -bench Kron -cpu 1
func BenchmarkKron(b *testing.B) {
	underKernels(func(kernel string) {
		for _, sh := range [][2]int{{12, 12}, {16, 9}, {16, 16}} {
			nx, ny := sh[0], sh[1]
			n := nx * ny
			r := rng.New(3)
			fx, fy, x := randomDense(r, nx, nx), randomDense(r, ny, ny), randomDense(r, n, n)
			rs, ss, work, c := scaling(r, n, false), scaling(r, n, false), make([]float64, KronWork(n)), mat.New(n, n)
			b.Run(fmt.Sprintf("%s/%dx%d/left", kernel, nx, ny), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					KronLeft(fx, fy, x, work, c)
				}
			})
			b.Run(fmt.Sprintf("%s/%dx%d/right", kernel, nx, ny), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					KronRight(fx, fy, x, rs, ss, work, c)
				}
			})
		}
	})
}
