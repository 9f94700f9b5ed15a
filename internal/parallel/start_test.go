package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// occupy posts a task that blocks until release to every worker but keep
// of the team, so the next hand-off can find at most keep idle workers.
func occupy(t *testing.T, keep int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	ws := workers(max(keep, 1))
	var held []*task
	for _, w := range ws[keep:] {
		tk := &task{b: func() { <-gate }}
		tk.helpers.add(1)
		for !w.post(tk) {
			// The worker is finishing an earlier task; it reports idle
			// right after.
			runtime.Gosched()
		}
		held = append(held, tk)
	}
	return func() {
		close(gate)
		for _, tk := range held {
			tk.helpers.wait()
		}
	}
}

// The closures below run under within's watchdog, on a goroutine of their
// own, so they report with t.Error.

// TestStartHandsOff: with an idle worker, Start returns before f has run
// and Wait returns after it, with f's writes visible (under -race this
// checks the hand-off's happens-before edges).
func TestStartHandsOff(t *testing.T) {
	withProcs(t, 2, func() {
		within(t, "Start with an idle worker", func() {
			gate := make(chan struct{})
			var x [64]int
			var p Pending
			if n := countHandoffs(func() {
				p = Start(func() {
					<-gate
					for i := range x {
						x[i] = i
					}
				})
			}); n != 1 {
				t.Errorf("Start made %d hand-offs with an idle worker, want 1", n)
			}
			close(gate)
			p.Wait()
			for i, v := range x {
				if v != i {
					t.Errorf("x[%d] = %d after Wait, want %d", i, v, i)
					break
				}
			}
		})
	})
}

// TestStartInline: f runs on the caller, before Start returns, when the
// pool may not be used (GOMAXPROCS 1, or two registered chains on two
// cores) and when every worker is busy.
func TestStartInline(t *testing.T) {
	check := func(t *testing.T, what string) {
		t.Helper()
		ran := false
		var p Pending
		if n := countHandoffs(func() { p = Start(func() { ran = true }) }); n != 0 {
			t.Errorf("%s: Start made %d hand-offs, want 0", what, n)
		}
		if !ran {
			t.Errorf("%s: f had not run when Start returned", what)
		}
		p.Wait()
	}
	withProcs(t, 1, func() { check(t, "GOMAXPROCS=1") })
	withProcs(t, 2, func() {
		Enter()
		Enter()
		check(t, "two chains on two cores")
		Leave()
		Leave()
	})
	withProcs(t, 2, func() {
		within(t, "Start with every worker busy", func() {
			release := occupy(t, 0)
			check(t, "every worker busy")
			release()
		})
	})
}

// TestPairWhileStartHoldsWorker: while a started closure holds the only
// idle worker, Pair and For run everything on the caller and still return
// the right results; once it is joined, the next Pair forks again.
func TestPairWhileStartHoldsWorker(t *testing.T) {
	withProcs(t, 2, func() {
		within(t, "Pair beside a pending Start", func() {
			release := occupy(t, 1)
			defer release()
			gate := make(chan struct{})
			var p Pending
			if n := countHandoffs(func() { p = Start(func() { <-gate }) }); n != 1 {
				t.Errorf("Start made %d hand-offs with one idle worker, want 1", n)
			}
			var a, b int
			var hits [64]int32
			if n := countHandoffs(func() {
				Pair(func() { a++ }, func() { b += 2 })
				For(len(hits), 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
			}); n != 0 {
				t.Errorf("Pair and For beside a pending Start made %d hand-offs, want 0", n)
			}
			if a != 1 || b != 2 {
				t.Errorf("Pair beside a pending Start: a=%d b=%d, want 1 and 2", a, b)
			}
			for i, h := range hits {
				if h != 1 {
					t.Errorf("For beside a pending Start visited index %d %d times", i, h)
				}
			}
			close(gate)
			p.Wait()
			if n := countHandoffs(func() { Pair(func() {}, func() {}) }); n != 1 {
				t.Errorf("Pair after Wait made %d hand-offs, want 1", n)
			}
		})
	})
}

// TestWaitIdempotent: Wait on a zero Pending, on an inline one and a
// second time on a joined one returns at once.
func TestWaitIdempotent(t *testing.T) {
	var zero Pending
	zero.Wait()
	withProcs(t, 1, func() {
		p := Start(func() {})
		p.Wait()
		p.Wait()
	})
	withProcs(t, 2, func() {
		within(t, "double Wait", func() {
			n := 0
			p := Start(func() { n++ })
			p.Wait()
			p.Wait()
			if n != 1 {
				t.Errorf("started closure ran %d times, want 1", n)
			}
		})
	})
}
