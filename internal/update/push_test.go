package update

import (
	"math"
	"testing"

	"questgo/internal/blas"
	"questgo/internal/mat"
	"questgo/internal/rng"
)

// pushRef is the rank-1 assembly push replaced: the effective row and column
// gathered through At, then one blas.Axpy per pending column and side. push
// must reproduce it bit for bit.
func pushRef(s *spinState, i int, factor float64) {
	n := s.g.Rows
	uc := s.u.Col(s.m)
	wc := s.w.Col(s.m)
	copy(uc, s.g.Col(i))
	for r := 0; r < n; r++ {
		wc[r] = s.g.At(i, r)
	}
	for t := 0; t < s.m; t++ {
		ut := s.u.Col(t)
		wt := s.w.Col(t)
		blas.Axpy(wt[i], ut, uc)
		blas.Axpy(ut[i], wt, wc)
	}
	for r := 0; r < n; r++ {
		uc[r] *= -factor
		wc[r] = -wc[r]
	}
	wc[i] += 1
	s.m++
}

// TestPushMatchesReference: at every pending count m of a delay block, at
// the first, middle and last site, push leaves U and W bitwise where pushRef
// leaves them. N covers one 16-row block, partial 4- and 1-row tails (36,
// 37) and the large_dense size; the operands hold ±0 entries, so a skipped
// ±0 coefficient shows as a -0 that did or did not survive. Each push starts
// from the same finite operands (chained pushes of random data overflow to
// NaN, whose sign is the one bit push does not promise).
func TestPushMatchesReference(t *testing.T) {
	for _, n := range []int{4, 16, 36, 37, 144} {
		for _, nd := range []int{1, 16, 32} {
			r := rng.New(uint64(n*100 + nd))
			g := mat.New(n, n)
			u, w := mat.New(n, nd), mat.New(n, nd)
			for _, x := range []*mat.Dense{g, u, w} {
				for k := range x.Data {
					switch v := r.Float64(); {
					case v < 0.05:
						x.Data[k] = 0
					case v < 0.1:
						x.Data[k] = math.Copysign(0, -1)
					default:
						x.Data[k] = 2*r.Float64() - 1
					}
				}
			}
			got := &spinState{g: g, u: u.Clone(), w: w.Clone()}
			want := &spinState{g: g, u: u.Clone(), w: w.Clone()}
			for _, i := range []int{0, n / 2, n - 1} {
				for m := 0; m < nd; m++ {
					factor := 4*r.Float64() - 2
					for _, s := range []*spinState{got, want} {
						s.u.CopyFrom(u)
						s.w.CopyFrom(w)
						s.m = m
					}
					got.push(i, factor)
					pushRef(want, i, factor)
					if !sameBits(got.u, want.u) || !sameBits(got.w, want.w) {
						t.Fatalf("N=%d nd=%d m=%d i=%d: push differs from the per-column Axpy reference", n, nd, m, i)
					}
				}
			}
		}
	}
}

func sameBits(a, b *mat.Dense) bool {
	for k := range a.Data {
		if math.Float64bits(a.Data[k]) != math.Float64bits(b.Data[k]) {
			return false
		}
	}
	return true
}
