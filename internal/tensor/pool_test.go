package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelRunsEveryIndexOnce pins the pool's core contract at several
// widths: fn(i) runs exactly once for every i in [0, n), regardless of how
// work is split between the caller and helpers.
func TestParallelRunsEveryIndexOnce(t *testing.T) {
	defer SetParallelism(0)
	for _, width := range []int{1, 2, 4, 8} {
		SetParallelism(width)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]atomic.Int32, n)
			Parallel(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("width %d, n %d: index %d ran %d times", width, n, i, got)
				}
			}
		}
	}
}

// TestParallelNegativeIsNoop: n <= 0 must return without touching the pool.
func TestParallelNegativeIsNoop(t *testing.T) {
	called := false
	Parallel(-3, func(int) { called = true })
	Parallel(0, func(int) { called = true })
	if called {
		t.Fatal("Parallel called fn for non-positive n")
	}
}

// TestParallelNested checks the no-deadlock guarantee: a Parallel call made
// from inside another Parallel callback must complete even when every pool
// worker is already occupied by the outer job. This is the Execute ->
// Forward -> MatMul nesting the serving path produces.
func TestParallelNested(t *testing.T) {
	SetParallelism(4)
	defer SetParallelism(0)
	const outer, inner = 16, 32
	var total atomic.Int64
	Parallel(outer, func(int) {
		Parallel(inner, func(int) { total.Add(1) })
	})
	if got := total.Load(); got != outer*inner {
		t.Fatalf("nested Parallel ran %d inner calls, want %d", got, outer*inner)
	}
}

// TestParallelNestedOneWorker: with a single pool worker, that worker's own
// nested Parallel queues a helper slot nobody is free to take while the
// caller waits for the worker. Waiting on enlisted helpers deadlocked here
// (BenchmarkBipartiteExecuteCold on a 2-core box); waiting on finished
// indices cannot.
func TestParallelNestedOneWorker(t *testing.T) {
	SetParallelism(2)
	defer SetParallelism(0)
	done := make(chan int64)
	go func() {
		var total atomic.Int64
		for r := 0; r < 2000; r++ {
			Parallel(2, func(int) {
				Parallel(8, func(int) { total.Add(1) })
			})
		}
		done <- total.Load()
	}()
	select {
	case got := <-done:
		if got != 2000*2*8 {
			t.Fatalf("nested Parallel ran %d inner calls, want %d", got, 2000*2*8)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("nested Parallel deadlocked with one pool worker")
	}
}

// TestParallelConcurrentCallers drives the pool from many goroutines at
// once — the serving engine's steady state. Run with -race this is the
// pool's data-race gate.
func TestParallelConcurrentCallers(t *testing.T) {
	SetParallelism(4)
	defer SetParallelism(0)
	const callers, n = 12, 200
	var wg sync.WaitGroup
	sums := make([]int64, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local atomic.Int64
			Parallel(n, func(i int) { local.Add(int64(i)) })
			sums[c] = local.Load()
		}(c)
	}
	wg.Wait()
	want := int64(n * (n - 1) / 2)
	for c, got := range sums {
		if got != want {
			t.Fatalf("caller %d: index sum %d, want %d", c, got, want)
		}
	}
}

// TestSetParallelismClamp: non-positive restores the GOMAXPROCS default, and
// explicit widths are reported back by Parallelism.
func TestSetParallelismClamp(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d after SetParallelism(3)", got)
	}
	SetParallelism(0)
	if got, want := Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Parallelism() = %d after reset, want GOMAXPROCS %d", got, want)
	}
	SetParallelism(-5)
	if got, want := Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Parallelism() = %d after SetParallelism(-5), want %d", got, want)
	}
}

// TestParallelBlocksCoverage: blocks must tile [0, n) exactly — no gaps, no
// overlaps — for awkward n/block combinations, including block > n and the
// block <= 0 fallback.
func TestParallelBlocksCoverage(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	cases := []struct{ n, block int }{
		{10, 3}, {16, 16}, {17, 16}, {5, 100}, {7, 0}, {1, 1}, {0, 4},
	}
	for _, tc := range cases {
		hits := make([]atomic.Int32, tc.n)
		ParallelBlocks(tc.n, tc.block, func(lo, hi int) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("n=%d block=%d: bad range [%d,%d)", tc.n, tc.block, lo, hi)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d block=%d: index %d covered %d times", tc.n, tc.block, i, got)
			}
		}
	}
}
