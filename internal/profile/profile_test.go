package profile

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestAddAndDuration(t *testing.T) {
	p := New()
	p.Add(Wrapping, 10*time.Millisecond)
	p.Add(Wrapping, 5*time.Millisecond)
	if p.Duration(Wrapping) != 15*time.Millisecond {
		t.Fatalf("Duration = %v", p.Duration(Wrapping))
	}
	if p.Total() != 15*time.Millisecond {
		t.Fatalf("Total = %v", p.Total())
	}
}

func TestPercentagesSumTo100(t *testing.T) {
	p := New()
	p.Add(DelayedUpdate, 1*time.Second)
	p.Add(Stratification, 2*time.Second)
	p.Add(Measurement, 1*time.Second)
	pc := p.Percentages()
	var total float64
	for _, v := range pc {
		total += v
	}
	if math.Abs(total-100) > 1e-9 {
		t.Fatalf("percentages sum to %v", total)
	}
	if pc[Stratification] != 50 {
		t.Fatalf("stratification share = %v", pc[Stratification])
	}
}

func TestEmptyProfile(t *testing.T) {
	p := New()
	pc := p.Percentages()
	for _, v := range pc {
		if v != 0 {
			t.Fatal("empty profile should have zero percentages")
		}
	}
}

func TestNilProfileIsNoop(t *testing.T) {
	var p *Profile
	p.Add(Wrapping, time.Second) // must not panic
	if p.Duration(Wrapping) != 0 || p.Total() != 0 {
		t.Fatal("nil profile should report zero")
	}
}

func TestCategoryNames(t *testing.T) {
	want := []string{"Delayed rank-1 update", "Stratification", "Clustering", "Wrapping", "Physical meas."}
	for c := Category(0); c < NumCategories; c++ {
		if c.Name() != want[c] {
			t.Fatalf("category %d name %q", c, c.Name())
		}
	}
	if Category(99).Name() != "unknown" {
		t.Fatal("out-of-range category name")
	}
}

func TestTableOutput(t *testing.T) {
	p := New()
	p.Add(Stratification, 3*time.Second)
	p.Add(Wrapping, time.Second)
	tbl := p.Table()
	if !strings.Contains(tbl, "Stratification") || !strings.Contains(tbl, "75.0%") {
		t.Fatalf("table output:\n%s", tbl)
	}
}
