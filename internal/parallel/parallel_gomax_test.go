package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// withProcs runs f with GOMAXPROCS temporarily raised so the concurrent
// code paths execute even on single-core CI machines.
func withProcs(t *testing.T, n int, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

func TestForParallelPath(t *testing.T) {
	withProcs(t, 4, func() {
		n := 1000
		hits := make([]int32, n)
		For(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("index %d hit %d times", i, h)
			}
		}
	})
}

func TestForGrainLimitsWorkers(t *testing.T) {
	withProcs(t, 8, func() {
		// Grain so large only one chunk fits: body must run exactly once
		// over the full range (serial fallback).
		calls := 0
		For(10, 100, func(lo, hi int) {
			calls++
			if lo != 0 || hi != 10 {
				t.Fatalf("unexpected chunk [%d,%d)", lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("expected single chunk, got %d", calls)
		}
	})
}

func TestZeroAndNegativeN(t *testing.T) {
	For(0, 1, func(lo, hi int) { t.Fatal("must not run") })
	For(-5, 1, func(lo, hi int) { t.Fatal("must not run") })
}
