package mat

import (
	"fmt"
	"testing"
)

func TestScratchClassBoundaries(t *testing.T) {
	cases := []struct{ n, class int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1024, 10}, {1025, 11}, {4096, 12},
	}
	for _, c := range cases {
		if got := scratchClass(c.n); got != c.class {
			t.Fatalf("scratchClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestScratchReuseAndZeroing(t *testing.T) {
	d := GetScratch(64, 64)
	for i := range d.Data {
		d.Data[i] = 3.25
	}
	PutScratch(d)
	// 60*60 = 3600 rounds up to the same 2^12 size class, so (absent a GC
	// between Put and Get) the same descriptor comes back — and it must be
	// zeroed despite the dirty contents we left in it.
	e := GetScratch(60, 60)
	if e.Rows != 60 || e.Cols != 60 || e.Stride != 60 {
		t.Fatalf("bad scratch shape %dx%d stride %d", e.Rows, e.Cols, e.Stride)
	}
	for i, v := range e.Data {
		if v != 0 {
			t.Fatalf("scratch not zeroed at %d: %v", i, v)
		}
	}
	if e != d {
		t.Log("scratch descriptor not reused (pool drained by GC?)")
	}
	PutScratch(e)
}

func TestScratchDegenerateShapes(t *testing.T) {
	for _, s := range []struct{ r, c int }{{0, 0}, {0, 5}, {5, 0}, {1, 1}} {
		d := GetScratch(s.r, s.c)
		if d.Rows != s.r || d.Cols != s.c || len(d.Data) != s.r*s.c {
			t.Fatalf("GetScratch(%d,%d) gave %dx%d len %d", s.r, s.c, d.Rows, d.Cols, len(d.Data))
		}
		PutScratch(d)
	}
}

// BenchmarkTransposeInto times TransposeInto at the orders a sweep
// transposes (the separable block product and the stratification stack's
// Rebuild, from N = 144 up) and beyond, where the element loop's stores, a
// power-of-two stride apart, start to evict each other (N = 256).
//
//	go test ./internal/mat -run NONE -bench TransposeInto -cpu 1
func BenchmarkTransposeInto(b *testing.B) {
	for _, n := range []int{16, 36, 144, 240, 256, 400} {
		m, dst := New(n, n), New(n, n)
		for i := range m.Data {
			m.Data[i] = float64(i)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.TransposeInto(dst)
			}
		})
	}
}

func TestTransposeInto(t *testing.T) {
	m := New(3, 5)
	for j := 0; j < 5; j++ {
		for i := 0; i < 3; i++ {
			m.Set(i, j, float64(10*i+j))
		}
	}
	dst := New(5, 3)
	m.TransposeInto(dst)
	want := m.Transpose()
	if !dst.EqualApprox(want, 0) {
		t.Fatal("TransposeInto disagrees with Transpose")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension-mismatch panic")
		}
	}()
	m.TransposeInto(New(3, 5))
}
