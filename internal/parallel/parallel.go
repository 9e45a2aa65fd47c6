// Package parallel is the one worker pool of the module: For fans n
// independent units out over a bounded number of goroutines while keeping
// the outcome deterministic. Every unit writes only to its own
// index-addressed slot, and the caller assembles results in serial order
// afterward. With one worker For is the plain serial loop, so a caller
// whose units are deterministic (the simulator runs in virtual time)
// produces byte-identical output at every worker count.
package parallel

import (
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n) on at most `workers` goroutines.
// Results must be written by index into caller-owned slots, so the outcome
// does not depend on scheduling. If any fn returns an error, For returns
// the one with the lowest index — the same error a serial loop would have
// hit first — after all started units finish (unlike a serial loop it does
// not cancel the remaining units; the units are short and side-effect-free,
// so draining them is simpler than plumbing cancellation through the
// simulator).
//
// workers <= 1 (or n <= 1) runs the plain serial loop on the calling
// goroutine, including its early-exit-on-error behavior.
func For(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
