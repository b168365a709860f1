package core

import (
	"sync"
	"sync/atomic"
)

// runTasks executes tasks 0..n-1 on a fixed pool of min(parallelism, n)
// workers, each pulling the next unclaimed index from a shared counter — so
// tasks start in index order, at most parallelism run at once, and the
// goroutine count does not grow with n (a worker's stack grows once, not once
// per task). Tasks must write their results into caller-owned,
// index-disjoint slots — the pool imposes no ordering, so any merge that
// depends on order must happen afterwards, over the slots, in index order.
//
// Error semantics match a serial loop as closely as concurrency allows: once
// any task fails, no worker claims a further task, and after all in-flight
// tasks drain the error of the lowest-indexed failed task is returned (so
// the reported error does not depend on goroutine completion order).
func runTasks(parallelism, n int, task func(i int) error) error {
	if parallelism > n {
		parallelism = n
	}
	if parallelism <= 1 {
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		wg       sync.WaitGroup
		next     atomic.Int64 // first unclaimed index
		failed   atomic.Bool
		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	worker := func() {
		defer wg.Done()
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := task(i); err != nil {
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go worker()
	}
	wg.Wait()
	return firstErr
}
