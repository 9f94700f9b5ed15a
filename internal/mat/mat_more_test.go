package mat

import (
	"strings"
	"testing"
)

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

func TestZeroAndSetIdentity(t *testing.T) {
	m := New(3, 3)
	m.Set(1, 2, 5)
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatal("Zero failed")
	}
	m.Set(0, 1, 7)
	m.SetIdentity()
	if m.At(0, 1) != 0 || m.At(0, 0) != 1 || m.At(2, 2) != 1 {
		t.Fatal("SetIdentity failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetIdentity on non-square should panic")
		}
	}()
	New(2, 3).SetIdentity()
}

func TestStringRendering(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1.5)
	s := m.String()
	if !strings.Contains(s, "2x2") || !strings.Contains(s, "1.5") {
		t.Fatalf("String = %q", s)
	}
	big := New(20, 20)
	if !strings.Contains(big.String(), "elided") {
		t.Fatal("large matrices should be elided")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	a := New(2, 2)
	b := New(3, 3)
	for name, fn := range map[string]func(){
		"CopyFrom":  func() { a.CopyFrom(b) },
		"Add":       func() { a.Add(1, b) },
		"ScaleRows": func() { a.ScaleRows([]float64{1}) },
		"ScaleCols": func() { a.ScaleCols([]float64{1}) },
		"RelDiff":   func() { RelDiff(a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched dims should panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEqualApproxDimensionMismatch(t *testing.T) {
	if New(2, 2).EqualApprox(New(3, 3), 1) {
		t.Fatal("different shapes can never be equal")
	}
}

func TestRelDiffZeroDenominator(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 3)
	z := New(2, 2)
	if RelDiff(a, z) != 3 {
		t.Fatalf("RelDiff against zero matrix should be absolute: %v", RelDiff(a, z))
	}
}
