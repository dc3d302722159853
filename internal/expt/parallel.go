package expt

import (
	"context"
	"runtime"
	"sync"
)

// mapTrials solves an experiment's n independent trials on the pool:
// fn(k) runs trial k, concurrently with the others, and its output lands
// in slot k. The caller draws every trial's seed or instance before the
// call, in its rng order, and folds the returned slice in index order, so
// tables, checks and float sums are the same at any GOMAXPROCS and any
// Runner.Workers. fn should read its inputs from slices the caller built
// with make: a slice literal that fn captures escapes to the heap, and the
// equality code generated for its array type shifts the solvers' machine
// code enough to slow them measurably (PERFORMANCE.md, "trial sweeps on
// the pool"). Once ctx is done, trials not yet started are skipped
// and keep T's zero value; the caller should check ctx before folding. A
// panicking trial is re-raised on the caller (forEachBounded), where the
// runner records it as the experiment's StatusError.
func mapTrials[T any](ctx context.Context, n int, fn func(k int) T) []T {
	out := make([]T, n)
	forEachBounded(n, 0, func(k int) {
		if ctx.Err() == nil {
			out[k] = fn(k)
		}
	})
	return out
}

// forEachBounded runs fn(k) for k = 0..n-1 on at most `workers`
// goroutines (≤ 0 means GOMAXPROCS; 1 runs every task inline on the
// caller). Determinism contract: fn writes only to its own slot of a
// results slice, so the schedule cannot change results. A panicking
// task must not kill the process from a pool goroutine: the first panic
// is captured and re-raised on the caller once every task has run.
func forEachBounded(n, workers int, fn func(k int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var (
		wg       sync.WaitGroup
		first    sync.Once
		panicVal any
	)
	tasks := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range tasks {
				func() {
					defer func() {
						if p := recover(); p != nil {
							first.Do(func() { panicVal = p })
						}
					}()
					fn(k)
				}()
			}
		}()
	}
	for k := 0; k < n; k++ {
		tasks <- k
	}
	close(tasks)
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
