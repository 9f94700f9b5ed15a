// Persistent worker pool.
//
// The seed implementation spawned fresh goroutines on every For call. That
// is cheap by OS-thread standards but still costs a stack allocation,
// scheduler round trips, and a sync.WaitGroup wakeup per call —
// and the dense kernels call For once per cache block, thousands of times
// per DQMC sweep. The pool below keeps long-lived workers parked on an
// unbuffered channel; a loop submits one task descriptor and the workers
// and the submitting goroutine claim chunks from it with an atomic cursor
// (dynamic scheduling, so irregular bodies balance automatically).
//
// Two properties are load-bearing:
//
//  1. The work channel is unbuffered and submission uses a non-blocking
//     send, so a task is handed over only to a worker that is parked on
//     the receive at that instant. Work can never queue behind a busy
//     worker, which makes nested parallel calls (Gemm inside a For body)
//     deadlock-free: when every worker is busy, the nested call's submits
//     fail and the calling goroutine simply runs all chunks itself.
//  2. Task descriptors are pooled and the claim cursor is atomic, so a
//     steady-state For call performs no heap allocation and spawns no
//     goroutine — the workers outlive the calls.
package parallel

import (
	"sync"
	"sync/atomic"
)

// task is what the persistent workers execute: run performs the work (or a
// share of it), finish signals the submitter. Implemented by loopTask
// (chunk-claiming loops) and pairTask (two-closure forks).
type task interface {
	run()
	finish()
}

// loopTask describes one parallel loop in flight. The submitting goroutine
// and any helping workers share it by pointer and claim [lo, hi) chunks via
// atomic adds on next.
type loopTask struct {
	body  func(lo, hi int)
	n     int
	chunk int
	next  int64
	wg    sync.WaitGroup
}

func (t *loopTask) finish() { t.wg.Done() }

var taskPool = sync.Pool{New: func() interface{} { return new(loopTask) }}

// workCh hands tasks to the persistent workers. Unbuffered on purpose;
// see the package comment above.
var workCh = make(chan task)

// spawned counts the persistent workers started so far. Workers are started
// lazily on first parallel use and never exit; GOMAXPROCS caps how many are
// enlisted per call, not how many exist.
var spawned int64

func ensureWorkers(want int) {
	for {
		have := atomic.LoadInt64(&spawned)
		if int(have) >= want {
			return
		}
		if atomic.CompareAndSwapInt64(&spawned, have, have+1) {
			go worker()
		}
	}
}

func worker() {
	for t := range workCh {
		t.run()
		t.finish()
	}
}

// run claims and executes chunks until the task is drained. It is called by
// the submitting goroutine and by every worker that picked the task up.
func (t *loopTask) run() {
	for {
		lo := int(atomic.AddInt64(&t.next, int64(t.chunk))) - t.chunk
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

// runShared enlists up to w-1 idle workers for t, participates itself, and
// waits for everyone to finish. Failed submits (no idle worker) are not
// retried: the caller's own run loop will pick up the slack.
func runShared(w int, t *loopTask) {
	ensureWorkers(w - 1)
	for i := 0; i < w-1; i++ {
		t.wg.Add(1)
		select {
		case workCh <- t:
		default:
			t.wg.Done()
			i = w // no worker is idle; stop offering
		}
	}
	t.run()
	t.wg.Wait()
}

// release clears the closure reference (so the pool does not pin caller
// state between uses) and returns the descriptor to the pool.
func (t *loopTask) release() {
	t.body = nil
	taskPool.Put(t)
}

// pairTask carries the second closure of a Pair fork to a worker.
type pairTask struct {
	b  func()
	wg sync.WaitGroup
}

func (t *pairTask) run()    { t.b() }
func (t *pairTask) finish() { t.wg.Done() }

var pairPool = sync.Pool{New: func() interface{} { return new(pairTask) }}
