// Package parallel provides shared-memory work distribution primitives used
// by the dense linear algebra kernels and the DQMC driver.
//
// The paper targets a two-socket six-core (12-way) shared memory node and
// parallelizes with OpenMP; here a pool of persistent goroutines plays the
// role of the OpenMP thread team, down to the way its idle members spin
// briefly before they sleep (see pool.go). All helpers degrade gracefully to
// serial execution when GOMAXPROCS is 1, when every core already runs a
// registered chain, or when the workload is below the grain size, so small
// DQMC matrices do not pay scheduling overhead, and nested calls (a parallel
// Gemm inside a parallel loop body) are safe: inner loops that find no idle
// worker run serially on the caller. Start hands one closure to an idle
// worker and lets the caller go on; Wait joins it.
package parallel

// maxWorkers reports the number of workers to use for a loop of n iterations
// with the given minimum grain per worker.
func maxWorkers(n, grain int) int {
	if grain < 1 {
		grain = 1
	}
	w := width()
	if byGrain := n / grain; byGrain < w {
		w = byGrain
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chunksPerWorker oversubscribes the chunk count so dynamic claiming can
// rebalance when chunk costs are uneven, without making chunks so small
// that the atomic cursor becomes contended.
const chunksPerWorker = 4

// For executes body(lo, hi) over a partition of [0, n) using up to width()
// goroutines: the caller and idle workers of the persistent pool. Each chunk
// holds at least grain iterations; if the loop is too small for more than
// one chunk the body runs on the calling goroutine with no synchronization
// cost. A body
// may be invoked several times on the same worker with different ranges.
//
//qmc:hot
func For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := maxWorkers(n, grain)
	if w == 1 {
		body(0, n)
		return
	}
	chunk := (n + w*chunksPerWorker - 1) / (w * chunksPerWorker)
	if chunk < grain {
		chunk = grain
	}
	t := taskPool.Get().(*task)
	t.body, t.n, t.chunk = body, n, chunk
	t.next.Store(0)
	enlist(t, w-1)
	t.run()
	t.helpers.wait()
	t.release()
}

// Pair runs a and b concurrently when an idle pool worker is available and
// serially (a then b) otherwise, returning when both are done. It is the
// fork primitive of the spin-parallel sweep: the up and down spin sectors
// of the DQMC update are independent between Metropolis decisions, so their
// heavy phases (wrapping, delayed-update flushes, cluster rebuilds,
// stratified refreshes) fork here. Nested parallelism is safe for the same
// reason it is in For: a busy pool degrades to serial execution on the
// caller, and any parallel kernels inside a or b enlist whatever workers
// remain idle. A steady-state call performs no allocation.
//
//qmc:hot
func Pair(a, b func()) {
	if width() < 2 {
		a()
		b()
		return
	}
	t := taskPool.Get().(*task)
	t.b = b
	forked := enlist(t, 1) == 1
	a()
	if forked {
		t.helpers.wait()
	} else {
		b()
	}
	t.release()
}

// Pending is a closure handed off by Start. Its zero value, like the result
// of a Start that ran inline, is already done.
type Pending struct{ t *task }

// Start runs f on an idle pool worker and returns without waiting for it;
// Wait joins. When no worker is idle, or width() is below 2 (GOMAXPROCS 1,
// or every core already running a registered chain), f runs inline before
// Start returns. A started f occupies its worker until it returns, so
// meanwhile a Pair or For that finds no other idle worker runs on its
// caller, as nested calls do. It is the pool half of Pair without the
// caller's half: the same pooled task and latch, so a steady-state call
// allocates nothing and spawns no goroutine.
//
//qmc:hot
func Start(f func()) Pending {
	if width() < 2 {
		f()
		return Pending{}
	}
	t := taskPool.Get().(*task)
	t.b = f
	if enlist(t, 1) == 1 {
		return Pending{t}
	}
	t.release()
	f()
	return Pending{}
}

// Wait returns once the closure passed to Start has run. Waiting again, or
// on an inline or zero Pending, returns at once.
//
//qmc:hot
func (p *Pending) Wait() {
	if p.t == nil {
		return
	}
	p.t.helpers.wait()
	p.t.release()
	p.t = nil
}
