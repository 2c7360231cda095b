package par_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"medchain/internal/par"
)

func TestForEachNVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		hits := make([]int32, 1000)
		par.ForEachN(len(hits), workers, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEachNBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak int32
	var mu sync.Mutex
	par.ForEachN(100, workers, func(int) {
		n := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		atomic.AddInt32(&cur, -1)
	})
	if peak > workers {
		t.Fatalf("observed %d concurrent calls, bound is %d", peak, workers)
	}
}
