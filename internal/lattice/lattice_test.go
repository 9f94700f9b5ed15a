package lattice

import (
	"math"
	"testing"
)

func TestIndexCoordsRoundTrip(t *testing.T) {
	l := NewMultilayer(4, 3, 2, 1, 0.5)
	if l.N() != 24 {
		t.Fatalf("N = %d", l.N())
	}
	for i := 0; i < l.N(); i++ {
		x, y, z := l.Coords(i)
		if l.Index(x, y, z) != i {
			t.Fatalf("round trip failed at %d", i)
		}
	}
}

func TestIndexPeriodicWrap(t *testing.T) {
	l := NewSquare(4, 4, 1)
	if l.Index(4, 0, 0) != l.Index(0, 0, 0) {
		t.Fatal("x wrap failed")
	}
	if l.Index(-1, 2, 0) != l.Index(3, 2, 0) {
		t.Fatal("negative x wrap failed")
	}
}

func TestKMatrixSymmetric(t *testing.T) {
	for _, l := range []*Lattice{NewSquare(4, 4, 1), NewSquare(2, 2, 1), NewMultilayer(3, 3, 3, 1, 0.7)} {
		k := l.KMatrix(0.3)
		n := l.N()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if k.At(i, j) != k.At(j, i) {
					t.Fatalf("K not symmetric at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestKMatrixStructure(t *testing.T) {
	l := NewSquare(4, 4, 1.5)
	k := l.KMatrix(0.25)
	// Diagonal = -mu.
	if k.At(0, 0) != -0.25 {
		t.Fatalf("diagonal = %v", k.At(0, 0))
	}
	// Nearest neighbors = -t.
	if k.At(l.Index(0, 0, 0), l.Index(1, 0, 0)) != -1.5 {
		t.Fatal("neighbor hopping wrong")
	}
	// Non-neighbors zero.
	if k.At(l.Index(0, 0, 0), l.Index(2, 0, 0)) != 0 {
		t.Fatal("next-nearest hopping should be zero")
	}
	// Row sums: each site has 4 neighbors, so sum = -mu - 4t.
	sum := 0.0
	for j := 0; j < l.N(); j++ {
		sum += k.At(0, j)
	}
	if math.Abs(sum-(-0.25-4*1.5)) > 1e-15 {
		t.Fatalf("row sum = %v", sum)
	}
}

func TestKMatrixTwoSiteDoubleBond(t *testing.T) {
	// On an Nx=2 periodic ring the +x and -x bonds coincide and the
	// matrix element doubles.
	l := NewSquare(2, 1, 1)
	k := l.KMatrix(0)
	if k.At(0, 1) != -2 {
		t.Fatalf("expected doubled bond, got %v", k.At(0, 1))
	}
}

func TestKMatrixMultilayer(t *testing.T) {
	l := NewMultilayer(2, 2, 3, 1, 0.4)
	k := l.KMatrix(0)
	a := l.Index(0, 0, 0)
	b := l.Index(0, 0, 1)
	c := l.Index(0, 0, 2)
	if k.At(a, b) != -0.4 || k.At(b, c) != -0.4 {
		t.Fatal("interlayer hopping wrong")
	}
	// Open boundary in z: no hopping layer 0 <-> layer 2.
	if k.At(a, c) != 0 {
		t.Fatal("z boundary should be open")
	}
}

func TestNeighborsCount(t *testing.T) {
	l := NewSquare(4, 4, 1)
	if got := len(l.Neighbors(5)); got != 4 {
		t.Fatalf("square lattice should have 4 neighbors, got %d", got)
	}
	ml := NewMultilayer(4, 4, 2, 1, 1)
	if got := len(ml.Neighbors(ml.Index(1, 1, 0))); got != 5 {
		t.Fatalf("bottom layer should have 5 neighbors, got %d", got)
	}
}

func TestMomentumGrid(t *testing.T) {
	l := NewSquare(4, 4, 1)
	pts := l.MomentumGrid()
	if len(pts) != 16 {
		t.Fatalf("got %d k-points", len(pts))
	}
	for _, p := range pts {
		if p.Kx <= -math.Pi-1e-12 || p.Kx > math.Pi+1e-12 {
			t.Fatalf("kx out of zone: %v", p.Kx)
		}
	}
	// Point (2,2) should be (pi, pi).
	p := pts[2+4*2]
	if math.Abs(p.Kx-math.Pi) > 1e-12 || math.Abs(p.Ky-math.Pi) > 1e-12 {
		t.Fatalf("grid point (2,2) = (%v,%v)", p.Kx, p.Ky)
	}
}

func TestSymmetryPath(t *testing.T) {
	l := NewSquare(8, 8, 1)
	idx, arc := l.SymmetryPath()
	if len(idx) != len(arc) {
		t.Fatal("idx and arc lengths differ")
	}
	// Path visits (0,0), (pi,pi), (pi,0) and returns to (0,0).
	if idx[0] != 0 {
		t.Fatal("path must start at (0,0)")
	}
	if idx[len(idx)-1] != 0 {
		t.Fatal("path must end at (0,0)")
	}
	// Arc lengths strictly increasing.
	for i := 1; i < len(arc); i++ {
		if arc[i] <= arc[i-1] {
			t.Fatalf("arc not increasing at %d", i)
		}
	}
	// Contains (pi,pi) = grid (4,4) and (pi,0) = grid (4,0).
	has := func(want int) bool {
		for _, v := range idx {
			if v == want {
				return true
			}
		}
		return false
	}
	if !has(4+8*4) || !has(4) {
		t.Fatal("path misses a high-symmetry point")
	}
}

func TestSymmetryPathPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd lattice should panic")
		}
	}()
	NewSquare(5, 5, 1).SymmetryPath()
}
