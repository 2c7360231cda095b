// Package par holds the one bounded fan-out every layer shares: block
// execution (parexec), off-chain task dispatch (offchain), recovery's
// decode and signature pre-pass (ledger, store) and the index's blob
// decode (indexer). It imports nothing of
// the repository, so any package may use it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachN runs fn(i) for every i in [0, n) on at most workers
// goroutines (workers <= 0 means GOMAXPROCS). It returns when all
// calls have completed — the barrier the engine's phases rely on — and
// at one worker it runs them in order on the calling goroutine.
func ForEachN(n, workers int, fn func(i int)) {
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
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
