package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Deterministic data parallelism.
//
// Kernels shard work by contiguous, disjoint output ranges, so the result
// is bit-for-bit independent of goroutine scheduling: no shard ever
// contributes to another shard's output and no cross-shard reduction
// exists. The only effect of the worker count is wall-clock time.

// workerSetting holds the configured worker count; 0 means "use
// GOMAXPROCS". Atomic so tests can flip it while kernels run under -race.
var workerSetting atomic.Int32

// Workers returns the effective kernel worker count: the value installed
// by SetWorkers, or GOMAXPROCS when unset.
func Workers() int {
	if w := int(workerSetting.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers installs the kernel worker count and returns the previous
// setting (0 = follow GOMAXPROCS). n ≤ 0 resets to the default. Sharding
// never changes results, only concurrency, so this is a pure performance
// knob; tests use it to force the parallel path on small machines.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workerSetting.Swap(int32(n)))
}

// WorkersFor returns the shard count a kernel should use for n work units
// costing flops multiply-adds total: 1 when the work is too small to
// amortize goroutine spawns or only one worker is configured. Callers
// branch on the result so the serial path never materializes a closure —
// that is what keeps the Into kernels allocation-free in steady state.
func WorkersFor(n, flops int) int {
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 || flops < parallelMinFlops {
		return 1
	}
	return w
}

// Shard fans [0, n) out over w goroutines in ceil(n/w)-sized ranges and
// blocks until all complete. fn must only write state owned by its index
// range. Callers that need an allocation-free serial path branch on
// WorkersFor first and only build the closure when w > 1.
func Shard(n, w int, fn func(lo, hi int)) {
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
