package mat

import (
	"math"
	"testing"
	"testing/quick"

	"questgo/internal/rng"
)

func randomDense(r *rng.Rand, rows, cols int) *Dense {
	m := New(rows, cols)
	for j := 0; j < cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = 2*r.Float64() - 1
		}
	}
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("dims = %dx%d", m.Rows, m.Cols)
	}
	for j := 0; j < 4; j++ {
		for i := 0; i < 3; i++ {
			if m.At(i, j) != 0 {
				t.Fatalf("not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(5, 7)
	m.Set(2, 3, 42.5)
	if m.At(2, 3) != 42.5 {
		t.Fatalf("At(2,3) = %v", m.At(2, 3))
	}
	if m.Data[2+3*m.Stride] != 42.5 {
		t.Fatal("column-major layout violated")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestDiag(t *testing.T) {
	d := Diag([]float64{1, 2, 3})
	if d.At(1, 1) != 2 || d.At(0, 1) != 0 {
		t.Fatal("Diag wrong")
	}
	got := d.Diagonal(nil)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Diagonal = %v", got)
	}
}

func TestViewSharesStorage(t *testing.T) {
	m := New(6, 6)
	v := m.View(2, 3, 2, 2)
	v.Set(0, 0, 9)
	if m.At(2, 3) != 9 {
		t.Fatal("view does not alias parent")
	}
	if v.Rows != 2 || v.Cols != 2 {
		t.Fatal("view dims wrong")
	}
}

func TestViewOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(3, 3).View(1, 1, 3, 1)
}

func TestTranspose(t *testing.T) {
	r := rng.New(1)
	m := randomDense(r, 4, 7)
	tr := m.Transpose()
	for i := 0; i < 4; i++ {
		for j := 0; j < 7; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	back := tr.Transpose()
	if !back.EqualApprox(m, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestScaleRowsCols(t *testing.T) {
	r := rng.New(2)
	m := randomDense(r, 3, 3)
	orig := m.Clone()
	dr := []float64{2, 3, 4}
	dc := []float64{5, 6, 7}
	m.ScaleRows(dr)
	m.ScaleCols(dc)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := orig.At(i, j) * dr[i] * dc[j]
			if math.Abs(m.At(i, j)-want) > 1e-15 {
				t.Fatalf("(%d,%d): got %v want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestAddScale(t *testing.T) {
	r := rng.New(3)
	a := randomDense(r, 4, 4)
	b := randomDense(r, 4, 4)
	sum := a.Clone()
	sum.Add(2, b)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := a.At(i, j) + 2*b.At(i, j)
			if math.Abs(sum.At(i, j)-want) > 1e-15 {
				t.Fatal("Add wrong")
			}
		}
	}
	sum.Scale(0.5)
	if math.Abs(sum.At(1, 2)-(a.At(1, 2)+2*b.At(1, 2))/2) > 1e-15 {
		t.Fatal("Scale wrong")
	}
}

func TestFrobNormOverflowSafe(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1e200)
	m.Set(1, 1, 1e200)
	got := m.FrobNorm()
	want := 1e200 * math.Sqrt2
	if math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("FrobNorm = %v want %v", got, want)
	}
	if math.IsInf(got, 0) {
		t.Fatal("FrobNorm overflowed")
	}
}

func TestRelDiff(t *testing.T) {
	a := Identity(3)
	b := Identity(3)
	if RelDiff(a, b) != 0 {
		t.Fatal("identical matrices should have zero RelDiff")
	}
	b.Set(0, 0, 1.1)
	d := RelDiff(a, b)
	if d <= 0 || d > 0.2 {
		t.Fatalf("RelDiff = %v", d)
	}
}

// TestRelDiffMatchesFrobNorm: the one-pass RelDiff is bit for bit the
// FrobNorm of the difference matrix m + (-1)*b over FrobNorm(b), the
// two-pass form it replaced, and allocates nothing: on random matrices with
// zeros, on views with a wider stride, across 1e-300 to 1e300 gradings
// (the scaled sums' rescaling branch), against a zero b, and with NaN and Inf
// entries.
func TestRelDiffMatchesFrobNorm(t *testing.T) {
	twoPass := func(m, b *Dense) float64 {
		d := m.Clone()
		d.Add(-1, b)
		nb := b.FrobNorm()
		if nb == 0 {
			return d.FrobNorm()
		}
		return d.FrobNorm() / nb
	}
	r := rng.New(29)
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+r.Intn(12), 1+r.Intn(12)
		m, b := New(rows+2, cols+1).View(1, 1, rows, cols), New(rows, cols)
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				scale := math.Pow(10, float64(r.Intn(601)-300))
				switch r.Intn(6) {
				case 0: // exact zero in b, the difference, or both
					m.Set(i, j, 0)
				case 1:
					v := 2*r.Float64() - 1
					m.Set(i, j, v)
					b.Set(i, j, v)
				default:
					m.Set(i, j, scale*(2*r.Float64()-1))
					b.Set(i, j, scale*(2*r.Float64()-1))
				}
			}
		}
		switch trial {
		case 0:
			b.Zero()
		case 1:
			m.Set(0, 0, math.NaN())
		case 2:
			b.Set(0, 0, math.Inf(1))
		}
		got, want := RelDiff(m, b), twoPass(m, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (%dx%d): RelDiff %v, two-pass %v", trial, rows, cols, got, want)
		}
	}
	m, b := randomDense(r, 16, 16), randomDense(r, 16, 16)
	if a := testing.AllocsPerRun(10, func() { RelDiff(m, b) }); a != 0 {
		t.Fatalf("RelDiff allocates %v times per call", a)
	}
}

func TestMaxAbs(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, -7)
	m.Set(1, 0, 3)
	if m.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

// Property: transpose preserves the Frobenius norm.
func TestQuickTransposeNorm(t *testing.T) {
	r := rng.New(7)
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed) + r.Uint64()%64)
		rows := 1 + rr.Intn(20)
		cols := 1 + rr.Intn(20)
		m := randomDense(rr, rows, cols)
		return math.Abs(m.FrobNorm()-m.Transpose().FrobNorm()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone is independent of the original.
func TestQuickCloneIndependence(t *testing.T) {
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		m := randomDense(rr, 1+rr.Intn(10), 1+rr.Intn(10))
		c := m.Clone()
		m.Set(0, 0, 1234)
		return c.At(0, 0) != 1234 || m.Rows == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
