// Package par provides the deterministic fan-out primitive shared by the
// numeric kernels: a fixed worker pool that processes index ranges in
// chunks whose boundaries depend only on the problem size, never on the
// worker count or the scheduler.
//
// That chunking rule is the package's whole point. Floating-point
// reductions are not associative, so a parallel kernel stays bit-for-bit
// identical to its serial run only if every output element (or partial
// sum) is produced by exactly one chunk, the work inside a chunk runs in
// serial order, and any cross-chunk merge happens in fixed chunk order on
// the caller's goroutine. Pool.For guarantees the first two properties;
// callers that reduce across chunks index their partials by chunk number
// and fold them in ascending order (see stats.StratifiedCovariance).
package par

import (
	"sync"
	"sync/atomic"
)

// task is one chunk handed to a pool worker.
type task struct {
	lo, hi int
	fn     func(lo, hi int)
	wg     *sync.WaitGroup
}

// Pool is a fixed set of worker goroutines fed chunked index ranges. The
// zero of the type is not useful; create one with New. A nil *Pool is
// valid everywhere and runs every For serially on the caller's goroutine,
// so kernels hold one optional pool pointer and need no branching at the
// call sites.
type Pool struct {
	workers int
	tasks   chan task
	closed  atomic.Bool
}

// New starts a pool of the given number of worker goroutines and returns
// it. Sizes below 2 need no pool at all: New returns nil, which the Pool
// methods treat as "run serially". Call Close when done with the pool or
// its goroutines leak.
func New(workers int) *Pool {
	if workers < 2 {
		return nil
	}
	p := &Pool{workers: workers, tasks: make(chan task)}
	for w := 0; w < workers; w++ {
		go p.work()
	}
	return p
}

// work drains the task channel until Close.
func (p *Pool) work() {
	for t := range p.tasks {
		t.fn(t.lo, t.hi)
		t.wg.Done()
	}
}

// Workers reports the pool's goroutine count (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close shuts the pool's workers down. Safe on nil and idempotent; For
// must not be called after Close.
func (p *Pool) Close() {
	if p == nil || !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.tasks)
}

// For runs fn once per chunk of [0, n), with chunk boundaries
// [0, chunk), [chunk, 2·chunk), ... derived only from n and chunk. On a
// nil pool the chunks run serially in ascending order on the caller's
// goroutine; otherwise they are distributed across the pool's workers,
// with the caller blocking until every chunk has finished. fn must
// confine its writes to state owned by its chunk — For itself adds no
// synchronization between chunks beyond the final barrier.
func (p *Pool) For(n, chunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 || chunk > n {
		chunk = n
	}
	if p == nil {
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		return
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		p.tasks <- task{lo: lo, hi: hi, fn: fn, wg: &wg}
	}
	wg.Wait()
}
