package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// minBins is the fewest bins a level needs before the error rule reads it.
const minBins = 32

// Accumulator estimates the sign-weighted ratios R_i = <a_i s>/<s> of a
// vector of observables from a Monte Carlo series, one sample (a, s) per
// sweep, a already sign-weighted (a_i = O_i·s); a scalar is a vector of
// length 1. It is log-binning (Ambegaokar and Troyer, arXiv:0906.0943) in
// streaming form: level l keeps its M_l = ⌊n/2^l⌋ complete bins of 2^l
// samples as moments — per element Σa, Σa² and Σab, shared Σb and Σb² —
// plus one open bin, so it holds O(len·log n) numbers, does amortized
// O(len) work a push and allocates only when n passes a power of two.
//
// The mean is Σa/Σb over every sample. The error at level l is the ratio's
// delta-method error over that level's bins of sums A, B,
//
//	e_l² = var(A − R·B) / (M_l·B̄²),  R = ΣA/ΣB,
//
// which with s ≡ 1 is exactly the standard error of the bin means. The
// level is picked per element by one rule: with δ_l = e_l/√(2(M_l−1)) the
// uncertainty of e_l, the smallest l with M_l ≥ 32 whose error has stopped
// growing (e_{l+1} ≤ e_l + δ_l); failing that the largest l with M_l ≥ 32;
// and level 0 while M_0 < 32. Fewer bins leave a level's own error too
// uncertain to tell a plateau.
// Its fields are exported for encoding/gob, which carries it in checkpoints.
type Accumulator struct {
	N      int       // samples pushed
	TA     []float64 // Σa over every sample
	TB     float64
	KA     []float64 // the first sample, about which every moment is taken
	KB     float64
	Levels []Level
	carry  []float64
}

// Level holds the moments of its bins' sums less 2^l times the first
// sample, which keeps Σa² − M·Ā² from cancelling where a barely moves, and
// its open bin: a complete level l−1 bin while M_{l−1} is odd.
type Level struct {
	SA, SAA, SAB, Open []float64
	SB, SBB, OpenB     float64
}

// NewAccumulator returns an empty accumulator of vectors of length n.
func NewAccumulator(n int) *Accumulator {
	return &Accumulator{TA: make([]float64, n), KA: make([]float64, n), carry: make([]float64, n), Levels: []Level{newLevel(n)}}
}

func newLevel(n int) Level {
	buf := make([]float64, 4*n)
	return Level{SA: buf[:n:n], SAA: buf[n : 2*n : 2*n], SAB: buf[2*n : 3*n : 3*n], Open: buf[3*n:]}
}

// Check reports whether acc has the shape of an accumulator of vectors of
// length n after samples pushes: a level per bit of the count and one
// above them, every vector of length n. Check vets a decoded accumulator.
func (acc *Accumulator) Check(n, samples int) error {
	if acc == nil || acc.N != samples || len(acc.Levels) != bits.Len(uint(samples))+1 {
		return fmt.Errorf("stats: not an accumulator of %d samples", samples)
	}
	ok := len(acc.TA) == n && len(acc.KA) == n
	for _, lv := range acc.Levels {
		ok = ok && len(lv.SA) == n && len(lv.SAA) == n && len(lv.SAB) == n && len(lv.Open) == n
	}
	if !ok {
		return fmt.Errorf("stats: not an accumulator of width %d", n)
	}
	return nil
}

// Clone returns a deep copy of acc (nil for nil).
func (acc *Accumulator) Clone() *Accumulator {
	if acc == nil {
		return nil
	}
	c := &Accumulator{N: acc.N, TA: slices.Clone(acc.TA), TB: acc.TB, KA: slices.Clone(acc.KA), KB: acc.KB}
	for _, lv := range acc.Levels {
		c.Levels = append(c.Levels, Level{slices.Clone(lv.SA), slices.Clone(lv.SAA), slices.Clone(lv.SAB), slices.Clone(lv.Open), lv.SB, lv.SBB, lv.OpenB})
	}
	return c
}

// Push records one sample: the sign-weighted observables a (not retained)
// and the sign s.
func (acc *Accumulator) Push(a []float64, s float64) {
	if len(a) != len(acc.TA) {
		panic("stats: sample length does not match the accumulator")
	}
	if acc.N == 0 {
		copy(acc.KA, a)
		acc.KB = s
	}
	acc.N++
	acc.TB += s
	acc.carry = append(acc.carry[:0], a...) // none yet once decoded
	c, cb := acc.carry, s-acc.KB
	for i, x := range a {
		acc.TA[i] += x
		c[i] = x - acc.KA[i]
	}
	// The sample completes a level-0 bin; the M_l-th bin of level l opens
	// the bin above when M_l is odd and completes it when M_l is even.
	for l := 0; ; l++ {
		lv := &acc.Levels[l]
		lv.SB += cb
		lv.SBB += cb * cb
		for i, x := range c {
			lv.SA[i] += x
			lv.SAA[i] += x * x
			lv.SAB[i] += x * cb
		}
		if l+1 == len(acc.Levels) {
			acc.Levels = append(acc.Levels, newLevel(len(c)))
		}
		up := &acc.Levels[l+1]
		if acc.N>>l&1 == 1 {
			copy(up.Open, c)
			up.OpenB = cb
			return
		}
		for i, x := range up.Open {
			c[i] += x
		}
		cb += up.OpenB
	}
}

// AvgSign returns the mean of the signs, Σs/n (NaN before the first push).
func (acc *Accumulator) AvgSign() float64 { return acc.TB / float64(acc.N) }

// Estimate returns every element's mean Σa/Σb (0 while Σb is 0) and its
// error at the level the rule picks.
func (acc *Accumulator) Estimate() (mean, err []float64) {
	mean, err = make([]float64, len(acc.TA)), make([]float64, len(acc.TA))
	for i := range mean {
		if acc.TB != 0 {
			mean[i] = acc.TA[i] / acc.TB
		}
		err[i] = acc.errAt(acc.level(i), i)
	}
	return mean, err
}

// level is the error rule's level for element i.
func (acc *Accumulator) level(i int) int {
	l := 0
	for acc.N>>(l+1) >= minBins {
		e := acc.errAt(l, i)
		if acc.errAt(l+1, i) <= e+e/math.Sqrt(float64(2*(acc.N>>l-1))) {
			break
		}
		l++
	}
	return l
}

// errAt is e_l of element i: 0 below two bins or where the bins' sign sum
// is 0.
func (acc *Accumulator) errAt(l, i int) float64 {
	lv := &acc.Levels[l]
	if acc.N>>l < 2 {
		return 0
	}
	m, w := float64(acc.N>>l), math.Ldexp(1, l)
	ma, mb := lv.SA[i]/m, lv.SB/m
	b := mb + w*acc.KB
	if b == 0 {
		return 0
	}
	r := (ma + w*acc.KA[i]) / b
	va := lv.SAA[i] - lv.SA[i]*ma
	cab := lv.SAB[i] - lv.SA[i]*mb
	vb := lv.SBB - lv.SB*mb
	v := (va - 2*r*cab + r*r*vb) / (m - 1)
	return math.Sqrt(max(v, 0)/m) / math.Abs(b)
}
