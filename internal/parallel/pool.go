// Persistent worker pool.
//
// The spin-parallel sweep forks once per time slice around 2-50 us of work,
// and the dense kernels call For once per cache block, so a hand-off has to
// cost well under a microsecond. Waking a sleeping goroutine does not (a
// futex round trip is 10-50 us): like the OpenMP team it stands in for, the
// pool keeps idle workers polling between parallel regions, for a bounded
// budget, and only then lets them sleep.
//
// Each worker owns a mailbox, one atomic word:
//
//	nil       the worker is polling the word (idle)
//	parked    the worker found nothing for spinPolls polls and went to sleep
//	a *task   posted to the worker; it holds the word until the task has run
//
// A submitter posts with one compare-and-swap from nil or parked to its
// task, and signals the worker's wake group only in the parked case. It
// then runs its own share and waits for the helpers the same way: poll the
// task's count for spinPolls, then park on its wait group.
//
// Three properties are load-bearing:
//
//  1. A task is only ever posted into an idle or parked mailbox, so work
//     never queues behind a running task. That makes nested parallel calls
//     (Gemm inside a For body, Pair inside Pair) deadlock-free: when every
//     worker is busy the posts fail and the caller runs everything itself.
//  2. The worker parks by compare-and-swap from nil, so a task posted while
//     it is deciding to park makes the swap fail and is picked up at once;
//     a wake-up cannot be lost.
//  3. Task descriptors are pooled, the claim cursor is atomic and the
//     workers outlive the calls, so a steady-state For, Pair or Start
//     performs no heap allocation and spawns no goroutine.
//
// Spinning only pays when a core is idle. A Markov chain registers for its
// lifetime (Enter/Leave) and loops are offered GOMAXPROCS / chains wide, so
// when every core already runs a chain nothing is handed off and the
// workers stay parked (see width).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spinPolls is how many times an idle worker polls its mailbox, and a
// submitter the completion count, before parking; yieldEvery is how many
// polls pass between runtime.Gosched calls, which keep a poller from
// holding a P that a runnable goroutine (the task itself, on an
// oversubscribed machine) needs. Together they come to roughly 350 us on
// the 2.1 GHz development box — longer than the Metropolis loop that
// separates two forks of the sweep up to N = 144, still far shorter than a
// scheduler quantum. EXPERIMENTS.md has the sweeps that chose them ("PR 26 —
// spin fork", and "PR 28" for the five-workload sweep that moved the budget
// from 1<<13): it is the smallest value on every workload's plateau, and
// yielding less often is no faster on idle cores and slower on
// oversubscribed ones.
const (
	spinPolls  = 1 << 15
	yieldEvery = 1 << 4
)

// relax is one step of a polling loop.
func relax(i int) {
	if i%yieldEvery == yieldEvery-1 {
		runtime.Gosched()
	}
}

// latch counts a task's outstanding helpers. n is what the submitter polls,
// wg what it parks on; done decrements both, so a helper costs the waiter a
// futex only once the waiter has actually gone to sleep.
type latch struct {
	n  atomic.Int32
	wg sync.WaitGroup
}

func (l *latch) add(k int) {
	l.n.Add(int32(k))
	l.wg.Add(k)
}

func (l *latch) done() {
	l.n.Add(-1)
	l.wg.Done()
}

func (l *latch) wait() {
	for i := 0; i < spinPolls && l.n.Load() != 0; i++ {
		relax(i)
	}
	l.wg.Wait()
}

// task is one parallel region in flight: a chunked loop (body != nil) whose
// submitter and helpers claim [lo, hi) ranges with atomic adds on next, or
// one closure (b != nil): the forked half of a Pair, or a Start.
type task struct {
	body     func(lo, hi int)
	n, chunk int
	next     atomic.Int64

	b func()

	helpers latch
}

var taskPool = sync.Pool{New: func() interface{} { return new(task) }}

// run executes the forked closure, or claims and executes chunks until the
// loop is drained. It is called by every worker that took the task and, for
// loops, by the submitter too.
func (t *task) run() {
	if t.b != nil {
		t.b()
		return
	}
	for {
		lo := int(t.next.Add(int64(t.chunk))) - t.chunk
		if lo >= t.n {
			return
		}
		hi := lo + t.chunk
		if hi > t.n {
			hi = t.n
		}
		t.body(lo, hi)
	}
}

// release clears the closure references (so the pool does not pin caller
// state between uses) and returns the descriptor to the pool.
func (t *task) release() {
	t.body, t.b = nil, nil
	taskPool.Put(t)
}

// worker is one persistent goroutine and its mailbox.
type worker struct {
	slot atomic.Pointer[task]
	wake sync.WaitGroup // holds one count while the worker sleeps
	_    [64]byte       // keeps two workers' mailboxes off one cache line
}

// parked is the mailbox value of a sleeping worker.
var parked = new(task)

// handoffHook, when set by a test, runs on every successful post.
var handoffHook func()

// post hands t to w if w is idle or asleep, waking it in the second case.
func (w *worker) post(t *task) bool {
	for {
		old := w.slot.Load()
		if old != nil && old != parked {
			return false
		}
		if w.slot.CompareAndSwap(old, t) {
			if old == parked {
				w.wake.Done()
			}
			if handoffHook != nil {
				handoffHook()
			}
			return true
		}
	}
}

// next returns the next task posted to w's mailbox, parking after polls
// fruitless polls.
func (w *worker) next(polls int) *task {
	for i := 0; i < polls; i++ {
		if t := w.slot.Load(); t != nil {
			return t
		}
		relax(i)
	}
	w.wake.Add(1)
	if w.slot.CompareAndSwap(nil, parked) {
		w.wake.Wait()
	} else {
		w.wake.Done() // a task arrived first
	}
	return w.slot.Load()
}

// loop is the worker's body; polls is spinPolls outside the tests.
func (w *worker) loop(polls int) {
	for {
		t := w.next(polls)
		t.run()
		// Idle before reporting: the submitter's next fork, microseconds
		// away, must find this mailbox free.
		w.slot.Store(nil)
		t.helpers.done()
	}
}

// team is the set of workers started so far. Workers are started lazily on
// first parallel use and never exit; the slice only grows, by copy, so
// readers need no lock.
var team struct {
	mu sync.Mutex
	ws atomic.Pointer[[]*worker]
}

// workers returns the team, grown to at least n.
func workers(n int) []*worker {
	if p := team.ws.Load(); p != nil && len(*p) >= n {
		return *p
	}
	team.mu.Lock()
	defer team.mu.Unlock()
	var ws []*worker
	if p := team.ws.Load(); p != nil {
		ws = append(ws, *p...)
	}
	for len(ws) < n {
		w := new(worker)
		go w.loop(spinPolls)
		ws = append(ws, w)
	}
	team.ws.Store(&ws)
	return ws
}

// enlist offers t to idle workers until want of them have taken it and
// returns how many did. Busy workers are skipped, never waited for: the
// caller's own share of the task picks up the slack.
func enlist(t *task, want int) int {
	t.helpers.add(want)
	got := 0
	for _, w := range workers(want) {
		if got == want {
			return got
		}
		if w.post(t) {
			got++
		}
	}
	t.helpers.add(got - want)
	return got
}

// chains counts the Markov chains between Enter and Leave.
var chains atomic.Int32

// Enter registers the calling goroutine as a Markov chain — a long-lived
// serial computation that keeps one core busy whatever the pool does — until
// the matching Leave.
func Enter() { chains.Add(1) }

// Leave ends the registration made by Enter.
func Leave() { chains.Add(-1) }

// width is how many goroutines one Pair or For may span: GOMAXPROCS shared
// evenly among the registered chains (all of it for callers outside any
// chain). Two chains on two cores get width 1 and run every loop inline,
// each on its own core, with the workers asleep; one chain gets the spare
// core through a cheap hand-off.
func width() int {
	w := runtime.GOMAXPROCS(0)
	if c := int(chains.Load()); c > 1 {
		w /= c
	}
	return w
}
