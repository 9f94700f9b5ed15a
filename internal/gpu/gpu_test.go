package gpu

import (
	"testing"
	"time"

	"questgo/internal/gpu/hw"
	"questgo/internal/greens"
	"questgo/internal/hubbard"
	"questgo/internal/lattice"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

func testSetup(t *testing.T, nx, ny int, u, beta float64, l int, seed uint64) (*hubbard.Propagator, *hubbard.Field) {
	t.Helper()
	lat := lattice.NewSquare(nx, ny, 1)
	m, err := hubbard.NewModel(lat, u, 0, beta, l)
	if err != nil {
		t.Fatal(err)
	}
	p := hubbard.NewPropagator(m)
	f := hubbard.NewRandomField(l, m.N(), rng.New(seed))
	return p, f
}

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

func TestTransferRoundTrip(t *testing.T) {
	d := hw.NewDevice()
	st := d.NewStream()
	r := rng.New(1)
	h := randomDense(r, 8)
	dm := d.Malloc(8, 8)
	st.SetMatrix(dm, h)
	back := mat.New(8, 8)
	st.GetMatrix(back, dm)
	if !back.EqualApprox(h, 0) {
		t.Fatal("transfer round trip corrupted data")
	}
	if d.Transferred() != 2*8*8*8 {
		t.Fatalf("transferred bytes = %d", d.Transferred())
	}
	if d.Clock() <= 0 {
		t.Fatal("clock did not advance")
	}
}

func TestDeviceGemmMatchesHost(t *testing.T) {
	d := hw.NewDevice()
	st := d.NewStream()
	r := rng.New(2)
	a, b := randomDense(r, 12), randomDense(r, 12)
	da, db, dc := d.Malloc(12, 12), d.Malloc(12, 12), d.Malloc(12, 12)
	st.SetMatrix(da, a)
	st.SetMatrix(db, b)
	st.Dgemm(false, false, 1, da, db, 0, dc)
	got := mat.New(12, 12)
	st.GetMatrix(got, dc)
	// Host reference.
	want := mat.New(12, 12)
	for j := 0; j < 12; j++ {
		for i := 0; i < 12; i++ {
			s := 0.0
			for k := 0; k < 12; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	if !got.EqualApprox(want, 1e-12) {
		t.Fatal("device Dgemm wrong")
	}
}

func TestScaleRowsKernel(t *testing.T) {
	d := hw.NewDevice()
	st := d.NewStream()
	r := rng.New(3)
	src := randomDense(r, 6)
	v := []float64{1, 2, 3, 4, 5, 6}
	dsrc, ddst, dv := d.Malloc(6, 6), d.Malloc(6, 6), d.Malloc(6, 1)
	st.SetMatrix(dsrc, src)
	st.SetVector(dv, v)
	st.ScaleRows(ddst, dsrc, dv)
	got := mat.New(6, 6)
	st.GetMatrix(got, ddst)
	want := src.Clone()
	want.ScaleRows(v)
	if !got.EqualApprox(want, 0) {
		t.Fatal("ScaleRows kernel wrong")
	}
}

func TestScaleRowsColsKernel(t *testing.T) {
	d := hw.NewDevice()
	st := d.NewStream()
	r := rng.New(4)
	g := randomDense(r, 5)
	v := []float64{2, 0.5, 3, 1.5, 4}
	dg, dv := d.Malloc(5, 5), d.Malloc(5, 1)
	st.SetMatrix(dg, g)
	st.SetVector(dv, v)
	st.ScaleRowsCols(dg, dv)
	got := mat.New(5, 5)
	st.GetMatrix(got, dg)
	want := g.Clone()
	want.ScaleRows(v)
	inv := make([]float64, 5)
	for i := range v {
		inv[i] = 1 / v[i]
	}
	want.ScaleCols(inv)
	if !got.EqualApprox(want, 1e-15) {
		t.Fatal("ScaleRowsCols kernel wrong")
	}
}

func TestAcceleratorClusterMatchesCPU(t *testing.T) {
	p, f := testSetup(t, 3, 3, 4, 2, 8, 5)
	dev := hw.NewDevice()
	acc := NewAccelerator(dev, p, 1, false)
	cpu := greens.NewClusterSet(p, f, hubbard.Up, 4)
	gpuCS := greens.NewClusterSetWith(p, f, hubbard.Up, 4, acc.Cluster)
	for c := 0; c < 2; c++ {
		if d := mat.RelDiff(gpuCS.Cluster(c), cpu.Cluster(c)); d > 1e-13 {
			t.Fatalf("cluster %d: GPU vs CPU diff %g", c, d)
		}
	}
}

// TestClusterBuilderParity: the one greens.ClusterSet gives bitwise the same
// blocks whether the host product or the device kernel (graphs off and on)
// multiplies them, at odd and even ping-pong depths, and rebuilding block c
// after a flip in its slices changes block c only.
func TestClusterBuilderParity(t *testing.T) {
	const l = 40
	p, f := testSetup(t, 3, 3, 4, 2, l, 17)
	for _, k := range []int{1, 2, 5, 8, 10} {
		host := greens.NewClusterSet(p, f, hubbard.Down, k)
		sets := []*greens.ClusterSet{host}
		for _, graphs := range []bool{false, true} {
			acc := NewAccelerator(hw.NewDevice(), p, 1, graphs)
			sets = append(sets, greens.NewClusterSetWith(p, f, hubbard.Down, k, acc.Cluster))
		}
		before := make([]*mat.Dense, host.NC)
		for c := range before {
			before[c] = host.Cluster(c).Clone()
		}
		const c = 1
		f.Flip(c*k+k-1, 4)
		for i, cs := range sets {
			cs.Recompute(f, c)
			for b := 0; b < cs.NC; b++ {
				if !cs.Cluster(b).EqualApprox(host.Cluster(b), 0) {
					t.Fatalf("k=%d builder %d: block %d differs from the host product", k, i, b)
				}
				if same := cs.Cluster(b).EqualApprox(before[b], 0); same != (b != c) {
					t.Fatalf("k=%d builder %d: block %d unchanged=%v after a flip in block %d", k, i, b, same, c)
				}
			}
		}
		f.Flip(c*k+k-1, 4)
	}
}

func TestAcceleratorWrapMatchesCPU(t *testing.T) {
	p, f := testSetup(t, 3, 3, 4, 2, 8, 7)
	bs := make([]*mat.Dense, p.Model.L)
	for i := range bs {
		bs[i] = p.BMatrix(hubbard.Up, f, i)
	}
	gCPU := greens.Green(bs)
	gGPU := gCPU.Clone()
	w := greens.NewWrapper(p)
	w.Wrap(gCPU, f, hubbard.Up, 0)
	dev := hw.NewDevice()
	acc := NewAccelerator(dev, p, 1, false)
	acc.Wrap(gGPU, f, hubbard.Up, 0)
	if d := mat.RelDiff(gGPU, gCPU); d > 1e-12 {
		t.Fatalf("GPU wrap vs CPU wrap diff %g", d)
	}
}

func TestHybridGreenMatchesCPU(t *testing.T) {
	p, f := testSetup(t, 3, 3, 4, 4, 16, 9)
	dev := hw.NewDevice()
	acc := NewAccelerator(dev, p, 1, false)
	gpuCS := greens.NewClusterSetWith(p, f, hubbard.Up, 4, acc.Cluster)
	cpuCS := greens.NewClusterSet(p, f, hubbard.Up, 4)
	gGPU := gpuCS.GreenAt(0, true)
	gCPU := cpuCS.GreenAt(0, true)
	if d := mat.RelDiff(gGPU, gCPU); d > 1e-11 {
		t.Fatalf("hybrid G vs CPU G diff %g", d)
	}
}

func TestCostModelShapes(t *testing.T) {
	// The paper's Figure 9 phenomenon: for the same N, clustering (k GEMMs
	// per result transfer) must achieve a higher modeled rate than
	// wrapping (2 GEMMs per full G round trip).
	p, f := testSetup(t, 8, 8, 4, 2, 20, 11)
	dev := hw.NewDevice()
	acc := NewAccelerator(dev, p, 1, false)
	n := p.Model.N()

	dev.Reset()
	dst := mat.New(n, n)
	acc.Cluster(dst, f, hubbard.Up, 0, 10)
	clusterRate := dev.GFlopsRate()

	dev.Reset()
	g := randomDense(rng.New(1), n)
	acc.Wrap(g, f, hubbard.Up, 0)
	wrapRate := dev.GFlopsRate()

	if clusterRate <= wrapRate {
		t.Fatalf("clustering rate %.1f should exceed wrapping rate %.1f", clusterRate, wrapRate)
	}
	// Rates grow with N (Figure 9's upward trend): compare against a
	// smaller lattice.
	p2, f2 := testSetup(t, 4, 4, 4, 2, 20, 13)
	dev2 := hw.NewDevice()
	acc2 := NewAccelerator(dev2, p2, 1, false)
	dev2.Reset()
	dst2 := mat.New(16, 16)
	acc2.Cluster(dst2, f2, hubbard.Up, 0, 10)
	if dev2.GFlopsRate() >= clusterRate {
		t.Fatalf("cluster rate should grow with N: N=16 %.1f vs N=64 %.1f",
			dev2.GFlopsRate(), clusterRate)
	}
}

func TestClockMonotonicAndReset(t *testing.T) {
	d := hw.NewDevice()
	st := d.NewStream()
	m := d.Malloc(4, 4)
	h := mat.New(4, 4)
	var prev time.Duration
	for i := 0; i < 3; i++ {
		st.SetMatrix(m, h)
		if d.Clock() <= prev {
			t.Fatal("clock must advance")
		}
		prev = d.Clock()
	}
	d.Reset()
	if d.Clock() != 0 || d.Transferred() != 0 || d.Flops() != 0 || d.Kernels() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestCrossDevicePanics(t *testing.T) {
	d1 := hw.NewDevice()
	st := d1.NewStream()
	d2 := hw.NewDevice()
	a := d1.Malloc(2, 2)
	b := d2.Malloc(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for cross-device operands")
		}
	}()
	st.Dgemm(false, false, 1, a, b, 0, a)
}

func TestMatrixSubSharesStorage(t *testing.T) {
	dev := hw.NewDevice()
	st := dev.NewStream()
	da := dev.Malloc(4, 4)
	sub := da.Sub(1, 1, 2, 2)
	host := mat.New(2, 2)
	host.Set(0, 0, 7)
	st.SetMatrix(sub, host) // panics unless sub is 2x2
	full := mat.New(4, 4)
	st.GetMatrix(full, da)
	if full.At(1, 1) != 7 {
		t.Fatal("Sub does not alias parent")
	}
}
