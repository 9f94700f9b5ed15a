package greens

import (
	"sort"
	"testing"

	"questgo/internal/rng"
)

// TestSortByNormDescMatchesSliceStable: the in-place insertion sort returns
// exactly the permutation sort.SliceStable did — random norms, norms drawn
// from three values (long runs of ties, which must keep index order),
// already-graded and reversed input — starting from a shuffled perm as well
// as the identity the caller passes.
func TestSortByNormDescMatchesSliceStable(t *testing.T) {
	r := rng.New(53)
	for _, n := range []int{0, 1, 2, 16, 36, 144, 257} {
		for shape := 0; shape < 4; shape++ {
			for rep := 0; rep < 8; rep++ {
				norms := make([]float64, n)
				for i := range norms {
					switch shape {
					case 0:
						norms[i] = r.Float64()
					case 1:
						norms[i] = float64(int(3 * r.Float64()))
					case 2:
						norms[i] = float64(n - i)
					case 3:
						norms[i] = float64(i / 2)
					}
				}
				got := make([]int, n)
				for i := range got {
					got[i] = i
				}
				if rep%2 == 1 {
					for i := n - 1; i > 0; i-- {
						j := int(r.Float64() * float64(i+1))
						got[i], got[j] = got[j], got[i]
					}
				}
				want := append([]int(nil), got...)
				sort.SliceStable(want, func(a, b int) bool { return norms[want[a]] > norms[want[b]] })
				sortByNormDesc(got, norms)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d shape=%d rep=%d: position %d holds column %d, sort.SliceStable puts %d there", n, shape, rep, i, got[i], want[i])
					}
				}
			}
		}
	}
}
