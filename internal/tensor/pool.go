package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The package worker pool. Every data-parallel kernel in the engine —
// matmul row blocks, attention (head x query-block) tasks, item-cache
// precomputes — funnels through Parallel, so one set of reusable goroutines
// serves the whole process instead of every call site spawning its own.
//
// Design constraints, in order:
//
//  1. Determinism: Parallel(n, fn) promises nothing about execution order,
//     so callers must give each index i exclusive ownership of its outputs.
//     Under that contract results are bit-identical at any pool width,
//     which is how the engine keeps its "same bits at GOMAXPROCS=1 and N"
//     guarantee.
//  2. No deadlocks under nesting: the submitting goroutine always works the
//     job itself and waits for its indices to finish, never for a helper to
//     show up, so a Parallel call made from inside another Parallel callback
//     (e.g. a batched Forward inside a parallel item-cache precompute)
//     completes even when every worker is busy. A helper that dequeues a job
//     after it has drained finds nothing to claim and moves on.
//  3. Zero overhead when it cannot help: width 1 (GOMAXPROCS=1) or n<=1
//     runs inline with no allocation and no synchronization.

// parJob is one Parallel invocation. Participants claim indices from next
// until the range [0, n) is exhausted; wg counts the indices still to finish.
type parJob struct {
	fn   func(int)
	n    int
	next atomic.Int64
	wg   sync.WaitGroup
}

// work claims and runs indices until the job is drained.
func (j *parJob) work() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		j.fn(i)
		j.wg.Done()
	}
}

var (
	poolMu      sync.Mutex
	poolWidth   atomic.Int32 // 0 until first use; then the target parallelism
	poolSpawned int          // workers started so far (never torn down)
	poolJobs    = make(chan *parJob, 512)
)

// Parallelism returns the pool width, initializing it to GOMAXPROCS on
// first use.
func Parallelism() int {
	if w := poolWidth.Load(); w > 0 {
		return int(w)
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if poolWidth.Load() == 0 {
		growLocked(runtime.GOMAXPROCS(0))
	}
	return int(poolWidth.Load())
}

// SetParallelism resizes the pool; n <= 0 restores the GOMAXPROCS default.
// Widening spawns workers (existing ones are reused, never restarted);
// narrowing only lowers the helper budget of future Parallel calls, so
// in-flight jobs are unaffected. Tests use width 1 vs N to check the
// engine's determinism guarantee on any machine.
func SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	growLocked(n)
}

func growLocked(n int) {
	poolWidth.Store(int32(n))
	for poolSpawned < n-1 {
		poolSpawned++
		go func() {
			for j := range poolJobs {
				j.work()
			}
		}()
	}
}

// Parallel runs fn(i) for every i in [0, n) across the worker pool and
// returns when all calls have completed. fn must not assume any ordering
// and must write only to data it exclusively owns per index; under that
// contract the aggregate result is identical at any pool width. Safe for
// concurrent callers and for nested use from inside a callback. n <= 1 or
// a width-1 pool runs inline.
func Parallel(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	width := Parallelism()
	if n == 1 || width == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := &parJob{fn: fn, n: n}
	j.wg.Add(n)
recruit:
	for h := min(width, n) - 1; h > 0; h-- {
		select {
		case poolJobs <- j:
		default:
			// Queue saturated: every worker is already busy, so recruiting
			// more would only wait. The caller (and any helper already
			// enlisted) still drains the job.
			break recruit
		}
	}
	j.work()
	j.wg.Wait()
}

// ParallelBlocks splits [0, n) into contiguous blocks of the given size and
// runs fn(lo, hi) for each on the pool. It inherits Parallel's contract:
// fn must exclusively own the outputs for its block.
func ParallelBlocks(n, block int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if block <= 0 {
		block = 1
	}
	blocks := (n + block - 1) / block
	Parallel(blocks, func(b int) {
		lo := b * block
		hi := lo + block
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}
