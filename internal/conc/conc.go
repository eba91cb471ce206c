// Package conc holds the small concurrency primitives the deployment
// core builds its fan-out on: a bounded parallel for-loop, over indices
// known up front (ForEach) or found while it runs (Stream). Squirrel's
// hot paths (Register propagation to N replicas, boot storms, the
// compression of a write's new blocks) want "do these n independent
// things on up to w goroutines" without each call site reinventing
// worker pools; the propagation legs of a single registration are
// independent of each other by construction, so a plain index-sharded
// loop is all the structure needed.
package conc

import (
	"runtime"
	"sync"
)

// ForEach runs fn(i) for every i in [0, n), on at most workers
// concurrent goroutines, and returns when all calls have finished.
// workers <= 0 means GOMAXPROCS. With workers == 1 (or n == 1) the
// loop degenerates to a serial in-order walk on the calling goroutine,
// which keeps single-threaded chaos runs byte-deterministic.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Static index striding: worker w takes i = w, w+workers, … Claiming
	// via an atomic counter would balance better under skew, but striding
	// keeps each leg's assignment deterministic, which makes hung-leg
	// debugging (who owns index i?) trivial.
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// Stream is ForEach for indices found while the loop runs: the caller
// hands each index to Add as it finds it and goes on with its own work,
// while helper goroutines run fn on the indices added so far; Wait runs
// on the calling goroutine whatever no helper has taken, then waits for
// the helpers. Add starts one helper with each index until there are
// workers−1 (workers <= 0 means GOMAXPROCS), so with one worker every
// call runs in Wait, in Add order, on the calling goroutine. At most limit
// indices may be added between two Waits; after Wait the Stream is ready
// for the next batch, and no goroutine of it is left running. A Stream
// is used by one goroutine.
type Stream struct {
	fn      func(i int)
	limit   int
	helpers int      // the most helpers a batch starts
	started int      // helpers started in this batch
	jobs    chan int // this batch's queue; nil before its first Add
	wg      sync.WaitGroup
}

// NewStream returns an empty Stream running fn on up to workers
// goroutines, the caller's included.
func NewStream(limit, workers int, fn func(i int)) *Stream {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Stream{fn: fn, limit: limit, helpers: max(0, min(workers, limit)-1)}
}

// Add queues i for fn.
func (s *Stream) Add(i int) {
	if s.jobs == nil {
		s.jobs = make(chan int, s.limit) // sized to the Adds a batch may make: Add never blocks
	}
	if s.started < s.helpers {
		s.started++
		s.wg.Add(1)
		go func(jobs <-chan int) {
			defer s.wg.Done()
			for i := range jobs {
				s.fn(i)
			}
		}(s.jobs)
	}
	s.jobs <- i
}

// Wait returns once fn has run on every index added since the last Wait,
// running those no helper has taken itself.
func (s *Stream) Wait() {
	if s.jobs == nil {
		return
	}
	close(s.jobs)
	for i := range s.jobs {
		s.fn(i)
	}
	s.wg.Wait()
	s.jobs, s.started = nil, 0
}
