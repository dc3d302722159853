package expt

import (
	"runtime"
	"sync"
)

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
