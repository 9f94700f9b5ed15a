package stats

import "math"

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
type Accumulator struct {
	n      int       // samples pushed
	ta     []float64 // Σa over every sample
	tb     float64
	ka     []float64 // the first sample, about which every moment is taken
	kb     float64
	carry  []float64
	levels []level
}

// level holds the moments of its bins' sums less 2^l times the first
// sample, which keeps Σa² − M·Ā² from cancelling where a barely moves, and
// its open bin: a complete level l−1 bin while M_{l−1} is odd.
type level struct {
	sa, saa, sab, open []float64
	sb, sbb, openb     float64
}

// NewAccumulator returns an empty accumulator of vectors of length n.
func NewAccumulator(n int) *Accumulator {
	return &Accumulator{ta: make([]float64, n), ka: make([]float64, n), carry: make([]float64, n), levels: []level{newLevel(n)}}
}

func newLevel(n int) level {
	buf := make([]float64, 4*n)
	return level{sa: buf[:n:n], saa: buf[n : 2*n : 2*n], sab: buf[2*n : 3*n : 3*n], open: buf[3*n:]}
}

// Push records one sample: the sign-weighted observables a (not retained)
// and the sign s.
func (acc *Accumulator) Push(a []float64, s float64) {
	if len(a) != len(acc.ta) {
		panic("stats: sample length does not match the accumulator")
	}
	if acc.n == 0 {
		copy(acc.ka, a)
		acc.kb = s
	}
	acc.n++
	acc.tb += s
	c, cb := acc.carry, s-acc.kb
	for i, x := range a {
		acc.ta[i] += x
		c[i] = x - acc.ka[i]
	}
	// The sample completes a level-0 bin; the M_l-th bin of level l opens
	// the bin above when M_l is odd and completes it when M_l is even.
	for l := 0; ; l++ {
		lv := &acc.levels[l]
		lv.sb += cb
		lv.sbb += cb * cb
		for i, x := range c {
			lv.sa[i] += x
			lv.saa[i] += x * x
			lv.sab[i] += x * cb
		}
		if l+1 == len(acc.levels) {
			acc.levels = append(acc.levels, newLevel(len(c)))
		}
		up := &acc.levels[l+1]
		if acc.n>>l&1 == 1 {
			copy(up.open, c)
			up.openb = cb
			return
		}
		for i, x := range up.open {
			c[i] += x
		}
		cb += up.openb
	}
}

// AvgSign returns the mean of the signs, Σs/n (NaN before the first push).
func (acc *Accumulator) AvgSign() float64 { return acc.tb / float64(acc.n) }

// Estimate returns every element's mean Σa/Σb (0 while Σb is 0) and its
// error at the level the rule picks.
func (acc *Accumulator) Estimate() (mean, err []float64) {
	mean, err = make([]float64, len(acc.ta)), make([]float64, len(acc.ta))
	for i := range mean {
		if acc.tb != 0 {
			mean[i] = acc.ta[i] / acc.tb
		}
		err[i] = acc.errAt(acc.level(i), i)
	}
	return mean, err
}

// level is the error rule's level for element i.
func (acc *Accumulator) level(i int) int {
	l := 0
	for acc.n>>(l+1) >= minBins {
		e := acc.errAt(l, i)
		if acc.errAt(l+1, i) <= e+e/math.Sqrt(float64(2*(acc.n>>l-1))) {
			break
		}
		l++
	}
	return l
}

// errAt is e_l of element i: 0 below two bins or where the bins' sign sum
// is 0.
func (acc *Accumulator) errAt(l, i int) float64 {
	lv := &acc.levels[l]
	if acc.n>>l < 2 {
		return 0
	}
	m, w := float64(acc.n>>l), math.Ldexp(1, l)
	ma, mb := lv.sa[i]/m, lv.sb/m
	b := mb + w*acc.kb
	if b == 0 {
		return 0
	}
	r := (ma + w*acc.ka[i]) / b
	va := lv.saa[i] - lv.sa[i]*ma
	cab := lv.sab[i] - lv.sa[i]*mb
	vb := lv.sbb - lv.sb*mb
	v := (va - 2*r*cab + r*r*vb) / (m - 1)
	return math.Sqrt(max(v, 0)/m) / math.Abs(b)
}
