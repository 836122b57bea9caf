// Package par provides the one concurrency shape this repository uses:
// a fixed-size worker pool fanning a function out over job indices, with
// results written by index so every caller stays deterministic regardless
// of worker count. The mutant scoring pool, batch compilation and mutant
// construction all share it.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n <= 0 selects all cores, and the
// count never exceeds jobs (no idle goroutines).
func Workers(n, jobs int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Indexed runs fn for every index in [0, jobs) on a pool of the given
// size (resolved through Workers). fn receives the worker number and the
// job index; it must confine its writes to per-index or per-worker state.
func Indexed(jobs, workers int, fn func(w, i int)) {
	IndexedCtx(nil, jobs, workers, fn, nil)
}

// IndexedCtx is Indexed with cooperative cancellation and completion
// reporting. A nil ctx never cancels. Once ctx is done, no worker claims
// a new job (jobs already running finish — fn should poll ctx itself
// when a single job is long) and the pool is drained before the
// context's error is returned, so no goroutine outlives the call. done,
// when non-nil, is invoked after each completed job with the number of
// jobs finished so far; it runs on worker goroutines, so it must be safe
// for concurrent use. The results written by fn stay deterministic under
// cancellation in the sense that every job either ran completely or not
// at all — but which jobs ran depends on timing, so callers treat a
// non-nil error as "partial, discard".
func IndexedCtx(ctx context.Context, jobs, workers int, fn func(w, i int), done func(completed int)) error {
	workers = Workers(workers, jobs)
	if workers <= 1 {
		for i := 0; i < jobs; i++ {
			if ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			fn(0, i)
			if done != nil {
				done(i + 1)
			}
		}
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	// A free worker claims the next index from a shared counter: a job
	// costs one atomic add rather than a handoff from a dispatching
	// goroutine, which is measurable on short jobs such as one mutant
	// machine on a short sequence.
	var next atomic.Int64
	var doneMu sync.Mutex
	completed := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx == nil || ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= jobs {
					return
				}
				fn(w, i)
				if done != nil {
					// Count and deliver under one lock so the reported
					// completion counts are strictly increasing — a hook
					// must never observe the count going backwards.
					doneMu.Lock()
					completed++
					done(completed)
					doneMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}
