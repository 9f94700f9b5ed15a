package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// coverageCheck runs For over n indices and verifies every index is visited
// exactly once.
func coverageCheck(t *testing.T, n int) {
	t.Helper()
	hits := make([]int32, n)
	For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("For: index %d visited %d times", i, h)
		}
	}
}

// TestForAcrossGOMAXPROCS runs the coverage check with the worker counts the
// acceptance criteria call out: serial, two-way, and all-core.
func TestForAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, p := range []int{1, 2, runtime.NumCPU()} {
		runtime.GOMAXPROCS(p)
		coverageCheck(t, 10_000)
	}
}

// TestNestedForNoDeadlock exercises the load-bearing pool property: an inner
// parallel loop issued from inside a worker's loop body must complete even
// when every worker is already busy (the inner submit fails and the caller
// runs the chunks itself). A regression here hangs, so the test fails on a
// watchdog timeout instead of stalling the suite.
func TestNestedForNoDeadlock(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	done := make(chan int64, 1)
	go func() {
		var total int64
		For(64, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var inner int64
				For(256, 8, func(jlo, jhi int) {
					var s int64
					for j := jlo; j < jhi; j++ {
						s += int64(j)
					}
					atomic.AddInt64(&inner, s)
				})
				atomic.AddInt64(&total, inner)
			}
		})
		done <- total
	}()

	want := int64(64) * (255 * 256 / 2)
	select {
	case got := <-done:
		if got != want {
			t.Fatalf("nested For sum = %d, want %d", got, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("nested For deadlocked")
	}
}

// TestNoGoroutineGrowthAfterWarmup verifies that steady-state For calls are
// served by the persistent workers: after a warm-up burst the goroutine
// count must not grow with further calls (the seed implementation spawned
// per call, which this pins against).
func TestNoGoroutineGrowthAfterWarmup(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	work := func() {
		For(1024, 1, func(lo, hi int) {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += float64(i)
			}
			_ = s
		})
	}
	for i := 0; i < 50; i++ {
		work()
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 500; i++ {
		work()
	}
	// Workers are persistent, so the count must be flat; allow a small
	// slack for unrelated runtime goroutines coming and going.
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Fatalf("goroutine count grew after warm-up: %d -> %d", base, got)
	}
}
