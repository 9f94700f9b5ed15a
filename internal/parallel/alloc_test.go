//go:build !race

package parallel

import (
	"runtime"
	"testing"
)

// TestHandoffNoAllocSteadyState: a warm Pair, For or Start + Wait that
// really hands work to a worker allocates nothing. testing.AllocsPerRun pins GOMAXPROCS to 1,
// where nothing is handed off, so the mallocs are counted by hand over
// enough calls to amortize a stray runtime allocation; race
// instrumentation allocates on its own, hence the build tag.
func TestHandoffNoAllocSteadyState(t *testing.T) {
	const calls = 2000
	withProcs(t, 2, func() {
		nop, body := func() {}, func(lo, hi int) {}
		for name, call := range map[string]func(){
			"Pair": func() { Pair(nop, nop) },
			"For":  func() { For(64, 1, body) },
			"Start": func() {
				p := Start(nop)
				p.Wait()
			},
		} {
			for i := 0; i < 100; i++ {
				call()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			handoffs := countHandoffs(func() {
				for i := 0; i < calls; i++ {
					call()
				}
			})
			runtime.ReadMemStats(&after)
			if handoffs < calls/2 {
				t.Errorf("%s: only %d of %d calls handed work off; the test measures the wrong path", name, handoffs, calls)
			}
			if mallocs := after.Mallocs - before.Mallocs; mallocs > calls/100 {
				t.Errorf("%s: %d mallocs over %d warm calls, want none", name, mallocs, calls)
			}
		}
	})
}

// TestStartInlineNoAlloc: Start + Wait on the inline path (AllocsPerRun
// runs at GOMAXPROCS 1) allocates nothing either.
func TestStartInlineNoAlloc(t *testing.T) {
	nop := func() {}
	if allocs := testing.AllocsPerRun(100, func() {
		p := Start(nop)
		p.Wait()
	}); allocs != 0 {
		t.Errorf("Start + Wait allocated %.1f objects per call, want 0", allocs)
	}
}
