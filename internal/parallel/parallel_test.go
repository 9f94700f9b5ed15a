package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1001} {
		var hits = make([]int32, n)
		For(n, 3, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}
