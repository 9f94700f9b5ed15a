package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countHandoffs runs f and reports how many tasks were posted to a worker
// meanwhile.
func countHandoffs(f func()) int64 {
	var n atomic.Int64
	handoffHook = func() { n.Add(1) }
	defer func() { handoffHook = nil }()
	f()
	return n.Load()
}

// waitParked returns once every worker started so far has gone to sleep.
func waitParked(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, w := range workers(0) {
		for w.slot.Load() != parked {
			if time.Now().After(deadline) {
				t.Fatal("worker still polling 10 s after its last task")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// within fails the test if f has not returned after a minute: a lost
// wake-up or a livelock hangs, so the tests below run under a watchdog.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatalf("%s did not finish", what)
	}
}

// TestIdleWorkerParks: a worker that finds nothing within its budget goes
// to sleep — visibly (its mailbox reads parked) and in effect (the idle
// process burns no CPU) — and a later Pair still wakes it.
func TestIdleWorkerParks(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		withProcs(t, procs, func() {
			var ran atomic.Int32
			b := func() { ran.Add(1) }
			Pair(func() {}, b)
			waitParked(t)
			before := cpuTime(t)
			time.Sleep(50 * time.Millisecond)
			if used := cpuTime(t) - before; used > 10*time.Millisecond {
				t.Errorf("GOMAXPROCS=%d: %v of CPU over an idle 50 ms window: a worker is spinning", procs, used)
			}
			want := int64(1)
			if procs == 1 {
				want = 0
			}
			if got := countHandoffs(func() { Pair(func() {}, b) }); got != want {
				t.Errorf("GOMAXPROCS=%d: Pair after the idle window made %d hand-offs, want %d", procs, got, want)
			}
			if ran.Load() != 2 {
				t.Errorf("GOMAXPROCS=%d: forked closure ran %d times in 2 Pairs", procs, ran.Load())
			}
		})
	}
}

// TestParkClaimRace hammers the one window in which a wake-up could be
// lost: workers with budgets of a few polls head for their park just as the
// submitter, who posts the next task as soon as the last one reported,
// reaches the mailbox. Every task must run, whichever side wins it.
func TestParkClaimRace(t *testing.T) {
	for procs, rounds := range map[int]int{1: 10_000, 2: 50_000, 4: 10_000} {
		withProcs(t, procs, func() {
			var sawIdle, sawParked int
			for _, polls := range []int{1, 16, 256} {
				w := new(worker)
				go w.loop(polls)
				ran := 0
				tk := &task{b: func() { ran++ }}
				within(t, "park/claim hammer", func() {
					for i := 0; i < rounds; i++ {
						switch w.slot.Load() {
						case nil:
							sawIdle++
						case parked:
							sawParked++
						}
						tk.helpers.add(1)
						if !w.post(tk) {
							t.Fatal("mailbox still busy after its task reported done")
						}
						tk.helpers.wait()
						if ran != i+1 {
							t.Fatalf("GOMAXPROCS=%d round %d: task ran %d times", procs, i, ran)
						}
					}
				})
			}
			t.Logf("GOMAXPROCS=%d: 3 x %d posts met the worker idle %d times, parked %d times", procs, rounds, sawIdle, sawParked)
			if sawIdle == 0 || sawParked == 0 {
				t.Errorf("GOMAXPROCS=%d: the hammer must see both sides of the park", procs)
			}
		})
	}
}

// TestCrowdedCallersFinish: more callers than cores, none of them a
// registered chain, all forking at once. Nobody may deadlock or starve and
// every closure and loop index runs exactly once.
func TestCrowdedCallersFinish(t *testing.T) {
	const callers, rounds, n = 8, 2000, 64
	withProcs(t, 2, func() {
		var as, bs [callers]int
		var hits [callers][n]int32
		within(t, "8 callers on 2 Ps", func() {
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						Pair(func() { as[g]++ }, func() { bs[g]++ })
						For(n, 1, func(lo, hi int) {
							for i := lo; i < hi; i++ {
								atomic.AddInt32(&hits[g][i], 1)
							}
						})
					}
				}(g)
			}
			wg.Wait()
		})
		for g := 0; g < callers; g++ {
			if as[g] != rounds || bs[g] != rounds {
				t.Errorf("caller %d: Pair closures ran %d and %d times, want %d each", g, as[g], bs[g], rounds)
			}
			for i, h := range hits[g] {
				if h != rounds {
					t.Errorf("caller %d: index %d visited %d times, want %d", g, i, h, rounds)
				}
			}
		}
	})
}

// TestCrowdingRule: with as many registered chains as cores nothing is
// handed off — each chain runs its loops inline on its own core — and with
// one chain the spare core is used.
func TestCrowdingRule(t *testing.T) {
	withProcs(t, 2, func() {
		work := func() {
			for i := 0; i < 100; i++ {
				Pair(func() {}, func() {})
				For(64, 1, func(lo, hi int) {})
			}
		}
		Enter()
		defer Leave()
		if got := countHandoffs(work); got == 0 {
			t.Error("one chain on two cores made no hand-off")
		}
		Enter()
		got := countHandoffs(work)
		Leave()
		if got != 0 {
			t.Errorf("two chains on two cores made %d hand-offs, want 0", got)
		}
	})
}
