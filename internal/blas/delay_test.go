package blas

import (
	"fmt"
	"math"
	"testing"

	"questgo/internal/mat"
	"questgo/internal/rng"
)

// The on-demand kernels must store the bits of the per-column Axpy chain
// the eager push is defined by (update's pushRef, with the scaling as one
// multiply, as AxpyCols makes it): every element starts from its G
// element, takes one Axpy per earlier column in ascending order (a ±0
// coefficient skipped, a NaN one not), one multiply by its scale and, on
// the W side at the column's own site, the unit term. The references below
// make exactly those calls, one element or one row range at a time, in the
// family the selected kernel belongs to (Axpy runs axpyAVX2 beside an
// assembly micro-kernel and axpyGo beside the Go one), so every bit counts,
// NaN payloads included.

// delayValue draws a graded value, or one of the special values the chain
// must carry: ±0 (5% each), a subnormal (3%) and, when nan is set, a NaN
// with a random payload and sign (2%).
func delayValue(r *rng.Rand, nan bool) float64 {
	switch v := r.Float64(); {
	case v < 0.05:
		return 0
	case v < 0.1:
		return math.Copysign(0, -1)
	case v < 0.13:
		return math.Copysign(math.SmallestNonzeroFloat64*float64(1+int(r.Float64()*1000)), r.Float64()-0.5)
	case nan && v < 0.15:
		return math.Float64frombits(0x7ff8000000000000 | uint64(r.Float64()*(1<<51)) | uint64(r.Float64()*2)<<63)
	}
	return math.Ldexp(2*r.Float64()-1, int(r.Float64()*20)-10)
}

func delayDense(r *rng.Rand, rows, cols int, nan bool) *mat.Dense {
	x := mat.New(rows, cols)
	for i := range x.Data {
		x.Data[i] = delayValue(r, nan)
	}
	return x
}

// delaySites returns m distinct ascending sites of [lo, hi), the first and
// the last of the range included when m allows, or nil if m exceeds it.
func delaySites(r *rng.Rand, m, lo, hi int) []int {
	if m > hi-lo {
		return nil
	}
	in := make([]bool, hi-lo)
	k := 0
	if m > 0 {
		in[0], k = true, 1
	}
	if m > 1 {
		in[hi-lo-1], k = true, 2
	}
	for k < m {
		if i := int(r.Float64() * float64(hi-lo)); !in[i] {
			in[i], k = true, k+1
		}
	}
	var s []int
	for i, v := range in {
		if v {
			s = append(s, lo+i)
		}
	}
	return s
}

func delayScales(r *rng.Rand, m int) (su, sw []float64) {
	su, sw = make([]float64, m), make([]float64, m)
	for t := range su {
		su[t] = -(4*r.Float64() - 2)
		sw[t] = -1
	}
	return su, sw
}

// delayChain is one element of either side: y0 plus one Axpy per earlier
// column (coefficient coef(t'), element x(t')), then the scale.
func delayChain(t int, y0, scale float64, coef, x func(tp int) float64) float64 {
	acc := []float64{y0}
	xv := []float64{0}
	for tp := 0; tp < t; tp++ {
		xv[0] = x(tp)
		Axpy(coef(tp), xv, acc)
	}
	return acc[0] * scale
}

// cw, cu and the matching setters index a sector's site submatrices.
func (d *DelaySector) cwAt(t, tp int) float64 { return d.cwData[t+tp*DelayRowsMax] }
func (d *DelaySector) cuAt(t, tp int) float64 { return d.cuData[t+tp*DelayRowsMax] }

// delayRowRef is DelayRows of one sector by the per-element Axpy chain.
func delayRowRef(m, r int, d *DelaySector) {
	for t := 0; t < m; t++ {
		s := d.sites[t]
		d.u.Set(r, t, delayChain(t, d.g.At(r, s), d.su[t], func(tp int) float64 { return d.cwAt(t, tp) }, func(tp int) float64 { return d.u.At(r, tp) }))
		d.w.Set(r, t, delayChain(t, d.g.At(s, r), d.sw[t], func(tp int) float64 { return d.cuAt(t, tp) }, func(tp int) float64 { return d.w.At(r, tp) }))
	}
}

// delayFillRef is DelayFill by the per-column Axpy chain over each of a
// column's two row ranges, one side at a time.
func delayFillRef(m, hi int, d *DelaySector) {
	delayFillSideRef(m, hi, d.g, d.sites[:m], d.su[:], d.cwAt, d.u, false)
	delayFillSideRef(m, hi, d.g, d.sites[:m], d.sw[:], d.cuAt, d.w, true)
}

func delayFillSideRef(m, hi int, g *mat.Dense, sites []int, scale []float64, c func(t, tp int) float64, a *mat.Dense, rowSide bool) {
	n := g.Rows
	for t := 0; t < m; t++ {
		s := sites[t]
		for _, rg := range [][2]int{{0, s + 1}, {max(hi, s+1), n}} {
			lo, up := rg[0], rg[1]
			if lo >= up {
				continue
			}
			y := make([]float64, up-lo)
			for i := range y {
				if rowSide {
					y[i] = g.At(s, lo+i)
				} else {
					y[i] = g.At(lo+i, s)
				}
			}
			for tp := 0; tp < t; tp++ {
				Axpy(c(t, tp), a.Col(tp)[lo:up], y)
			}
			for i, v := range y {
				a.Set(lo+i, t, v*scale[t])
			}
		}
		if rowSide {
			a.Set(s, t, a.At(s, t)+1)
		}
	}
}

// delayRandomSector returns a sector over random G, U and W (N x cols)
// holding m columns at sites with random scales and site submatrices
// (NaNs in G and the submatrices when nan is set), their nonzero bits set
// as Record sets them.
func delayRandomSector(r *rng.Rand, n, m, cols int, sites []int, nan bool) *DelaySector {
	d := NewDelaySector(delayDense(r, n, n, nan), delayDense(r, n, cols, false), delayDense(r, n, cols, false))
	su, _ := delayScales(r, m)
	copy(d.su[:], su)
	copy(d.sites[:], sites)
	for k := range d.cuData {
		d.cuData[k], d.cwData[k] = delayValue(r, nan), delayValue(r, nan)
	}
	for tp := 0; tp < m; tp++ {
		for t := tp + 1; t < m; t++ {
			if d.cuAt(t, tp) != 0 {
				d.nzu[tp] |= 1 << t
			}
			if d.cwAt(t, tp) != 0 {
				d.nzw[tp] |= 1 << t
			}
		}
	}
	return d
}

// clone copies d with its own U and W.
func (d *DelaySector) clone() *DelaySector {
	c := *d
	c.u, c.w = d.u.Clone(), d.w.Clone()
	return &c
}

func delayBitsEqual(x, y *mat.Dense) bool { return bitsEqual(x.Data, y.Data) }

// TestDelayRowsMatchesAxpy: in every family the host offers, for m = 0..32
// at N = 36, 37, 64, 144 and 200, DelayRows stores the row the per-element
// Axpy chain gives, bit for bit, over site submatrices holding ±0,
// subnormals and NaNs of random payload, with sites at rows 0 and N-1, and
// writes nothing else of U or W.
func TestDelayRowsMatchesAxpy(t *testing.T) {
	underKernels(func(kern string) {
		for _, n := range []int{36, 37, 64, 144, 200} {
			r := rng.New(uint64(n))
			for m := 0; m <= DelayRowsMax; m++ {
				sites := delaySites(r, m, 0, n)
				row := int(r.Float64() * float64(n))
				for in(sites, row) {
					row = (row + 1) % n
				}
				a := delayRandomSector(r, n, m, DelayRowsMax, sites, true)
				b := delayRandomSector(r, n, m, DelayRowsMax, sites, true)
				wa, wb := a.clone(), b.clone()
				DelayRows(m, row, a, b)
				delayRowRef(m, row, wa)
				delayRowRef(m, row, wb)
				for k, p := range [][2]*DelaySector{{a, wa}, {b, wb}} {
					if !delayBitsEqual(p[0].u, p[1].u) || !delayBitsEqual(p[0].w, p[1].w) {
						t.Fatalf("%s: N=%d m=%d r=%d: DelayRows differs from the Axpy chain in sector %d", kern, n, m, row, k)
					}
				}
				// One sector, passed twice.
				c := delayRandomSector(r, n, m, DelayRowsMax, sites, true)
				wc := c.clone()
				DelayRows(m, row, c, c)
				delayRowRef(m, row, wc)
				if !delayBitsEqual(c.u, wc.u) || !delayBitsEqual(c.w, wc.w) {
					t.Fatalf("%s: N=%d m=%d r=%d: DelayRows of one sector differs from the Axpy chain", kern, n, m, row)
				}
			}
		}
	})
}

func in(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestDelayFillMatchesAxpy: in every family, for m = 0..32 at N = 36, 37,
// 64, 144 and 200, with hi = N and hi inside the lattice, DelayFill stores
// the per-column Axpy chain's elements bit for bit on both sides, reads the
// rows it leaves alone as they stand, and writes nothing else.
func TestDelayFillMatchesAxpy(t *testing.T) {
	underKernels(func(kern string) {
		for _, n := range []int{36, 37, 64, 144, 200} {
			r := rng.New(uint64(n) + 7)
			for m := 0; m <= DelayRowsMax; m++ {
				for _, part := range []int{n, n - n/3, n / 2} {
					sites := delaySites(r, m, 0, part)
					if sites == nil {
						continue
					}
					hi := n
					if len(sites) > 0 && part < n {
						hi = sites[len(sites)-1] + 1 + int(r.Float64()*float64(n-part))
					}
					d := delayRandomSector(r, n, m, max(m, 1), sites, true)
					want := d.clone()
					DelayFill(m, hi, d)
					delayFillRef(m, hi, want)
					if !delayBitsEqual(d.u, want.u) || !delayBitsEqual(d.w, want.w) {
						t.Fatalf("%s: N=%d m=%d hi=%d: DelayFill differs from the Axpy chain", kern, n, m, hi)
					}
				}
			}
		}
	})
}

// delayOnDemand runs one delay block of sector d the on-demand way: the
// loop visits rows from..hi-1, storing each row (DelayRows) and recording
// a column at each of its sites (Record, as update's record does); then the
// fill.
func delayOnDemand(from, hi int, sites []int, factors []float64, d *DelaySector) {
	m := 0
	for row := from; row < hi; row++ {
		DelayRows(m, row, d, d)
		if m < len(sites) && sites[m] == row {
			d.Record(m, row, -factors[m])
			m++
		}
	}
	DelayFill(m, hi, d)
}

// delayEager is the push of every column of the block, the per-column Axpy
// chain of update's pushRef with the scaling as one multiply (by neg[t] =
// -1 on the W side: a multiply by the constant would compile to a negation,
// which flips a NaN's sign).
func delayEager(g *mat.Dense, sites []int, factors, neg []float64, u, w *mat.Dense) {
	n := g.Rows
	for m, s := range sites {
		uc, wc := u.Col(m), w.Col(m)
		for r := 0; r < n; r++ {
			uc[r], wc[r] = g.At(r, s), g.At(s, r)
		}
		for tp := 0; tp < m; tp++ {
			Axpy(w.At(s, tp), u.Col(tp), uc)
			Axpy(u.At(s, tp), w.Col(tp), wc)
		}
		for r := 0; r < n; r++ {
			uc[r] *= -factors[m]
			wc[r] *= neg[m]
		}
		wc[s] += 1
	}
}

// delayFlowCheck compares one block built on demand with the eager push.
func delayFlowCheck(n, m, from, hi int, seed uint64, nan bool) error {
	r := rng.New(seed)
	sites := delaySites(r, m, from, hi)
	if sites == nil {
		return nil
	}
	g := delayDense(r, n, n, nan)
	factors := make([]float64, m)
	for t := range factors {
		factors[t] = 4*r.Float64() - 2
	}
	nd := max(m, 1)
	d := NewDelaySector(g, mat.New(n, nd), mat.New(n, nd))
	delayOnDemand(from, hi, sites, factors, d)
	wu, ww := mat.New(n, nd), mat.New(n, nd)
	delayEager(g, sites, factors, d.sw[:], wu, ww)
	if !delayBitsEqual(d.u, wu) || !delayBitsEqual(d.w, ww) {
		return fmt.Errorf("N=%d m=%d rows %d..%d: the on-demand block differs from the eager push", n, m, from, hi)
	}
	return nil
}

// TestDelayMatchesPush: a whole block built on demand — rows at every
// visited site, the columns recorded at the sites, both fills — holds the
// eager push's U and W bit for bit, in every family, for blocks that start
// at row 0 or after a mid-slice flush and end at the last row or flush in
// mid-slice, over G with ±0, subnormal and NaN entries.
func TestDelayMatchesPush(t *testing.T) {
	underKernels(func(kern string) {
		for _, n := range []int{36, 37, 64, 144, 200} {
			for _, m := range []int{1, 2, 7, 8, 9, 16, 31, 32} {
				for k, rg := range [][2]int{{0, n}, {n / 3, n}, {0, n - n/4}, {n / 5, n - n/3}} {
					for _, nan := range []bool{false, true} {
						seed := uint64(n*1000 + m*10 + k)
						if err := delayFlowCheck(n, m, rg[0], rg[1], seed, nan); err != nil {
							t.Fatalf("%s: %v (NaNs %v)", kern, err, nan)
						}
					}
				}
			}
		}
	})
}

// FuzzDelayRows drives the on-demand block against the eager push over
// fuzzer-chosen lattice sizes, pending counts, visited row ranges and data
// seeds, on the selected kernel.
func FuzzDelayRows(f *testing.F) {
	f.Add(uint8(36), uint8(16), uint8(0), uint8(0), uint64(1), false)
	f.Add(uint8(144), uint8(32), uint8(10), uint8(20), uint64(2), true)
	f.Add(uint8(64), uint8(1), uint8(63), uint8(0), uint64(3), false)
	f.Add(uint8(200), uint8(9), uint8(100), uint8(50), uint64(4), true)
	f.Fuzz(func(t *testing.T, n8, m8, from8, cut8 uint8, seed uint64, nan bool) {
		n := int(n8)%200 + 1
		m := int(m8) % (DelayRowsMax + 1)
		from := int(from8) % n
		hi := n - int(cut8)%(n-from)
		if err := delayFlowCheck(n, m, from, hi, seed, nan); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDelayNoAllocs: the rows run at every visited site, Record at every
// accepted flip and the fill at every flush; none allocates.
func TestDelayNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n, m = 144, 16
	r := rng.New(11)
	sites := delaySites(r, m, 0, n/2)
	a := delayRandomSector(r, n, m, m+1, sites, false)
	b := delayRandomSector(r, n, m, m+1, sites, false)
	if allocs := testing.AllocsPerRun(20, func() { DelayRows(m, n-1, a, b) }); allocs != 0 {
		t.Errorf("DelayRows allocated %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { a.Record(m, n-1, 0.5) }); allocs != 0 {
		t.Errorf("Record allocated %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { DelayFill(m, n, a) }); allocs != 0 {
		t.Errorf("DelayFill allocated %.1f objects per call, want 0", allocs)
	}
}

// TestDelayShapeChecks: bad shapes, too many columns, sectors of other
// shapes, a site or row outside the lattice and a Record whose row the last
// DelayRows did not store panic before any kernel runs.
func TestDelayShapeChecks(t *testing.T) {
	d := NewDelaySector(mat.New(8, 8), mat.New(8, 4), mat.New(8, 4))
	e := NewDelaySector(mat.New(9, 9), mat.New(9, 4), mat.New(9, 4))
	for name, f := range map[string]func(){
		"too many columns": func() { NewDelaySector(mat.New(40, 40), mat.New(40, DelayRowsMax+1), mat.New(40, DelayRowsMax+1)) },
		"U and W differ":   func() { NewDelaySector(mat.New(8, 8), mat.New(8, 4), mat.New(8, 3)) },
		"record column":    func() { d.Record(4, 1, 1) },
		"record site":      func() { d.Record(0, 8, 1) },
		"record unvisited": func() { DelayRows(0, 3, d, d); d.Record(1, 5, 1) },
		"rows m":           func() { DelayRows(5, 0, d, d) },
		"rows r":           func() { DelayRows(2, 8, d, d) },
		"rows sectors":     func() { DelayRows(2, 0, d, e) },
		"fill hi":          func() { DelayFill(2, 9, d) },
		"fill m":           func() { DelayFill(5, 8, d) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkDelay times, at N = 144 and m = 8, 16, 32 (operands in cache,
// normal numbers only: a subnormal costs a microcode assist): the site rows
// of both sectors (one DelayRows), the fill of one side of a block whose
// sites span the lattice (half a DelayFill), and the m AxpyCols calls of
// the pushes that the fill's side replaces.
func BenchmarkDelay(b *testing.B) {
	const n = 144
	normal := func(r *rng.Rand, rows, cols int) *mat.Dense {
		x := mat.New(rows, cols)
		for i := range x.Data {
			x.Data[i] = 0.2*r.Float64() - 0.1
		}
		return x
	}
	for _, m := range []int{8, 16, 32} {
		r := rng.New(uint64(m))
		sites := delaySites(r, m, 0, n)
		sector := func() *DelaySector {
			d := NewDelaySector(normal(r, n, n), normal(r, n, m), normal(r, n, m))
			c := normal(r, DelayRowsMax, 2*DelayRowsMax)
			copy(d.cuData[:], c.Data[:len(d.cuData)])
			copy(d.cwData[:], c.Data[len(d.cuData):])
			su, _ := delayScales(r, m)
			copy(d.su[:], su)
			copy(d.sites[:], sites)
			for tp := 0; tp < m; tp++ {
				d.nzu[tp] = uint32(1)<<m - 1<<(tp+1)
				d.nzw[tp] = d.nzu[tp]
			}
			return d
		}
		up, dn := sector(), sector()
		row := n - 1
		for in(sites, row) {
			row--
		}
		b.Run(fmt.Sprintf("rows/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DelayRows(m, row, up, dn)
			}
		})
		u, w, g := up.u, up.w, up.g
		b.Run(fmt.Sprintf("fill/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				delayFill(n, m, n, g.Data, g.Stride, sites, up.su[:], up.cwData[:], DelayRowsMax, u.Data, u.Stride, false)
			}
		})
		bu := normal(r, n, m+1)
		b.Run(fmt.Sprintf("axpycols/m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for t := 0; t < m; t++ {
					AxpyCols(n, t, bu.Data, bu.Stride, w.Data[sites[t]:], w.Stride, g.Col(sites[t]), 1, up.su[t], bu.Col(m))
				}
			}
		})
	}
}
