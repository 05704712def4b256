package experiments

import (
	"runtime"
	"sync"
)

// This file is the only concurrent code in internal/: the core simulator
// packages are single-threaded (chromevet's concprim analyzer), and
// simulator instances built from fresh generators share no mutable state
// (TestParallelMatchesSequential under -race). That makes the cells of an
// experiment matrix independent, so they can run on a bounded worker pool
// while the merged output stays byte-identical to a sequential run at
// equal seeds.

// workers resolves the effective worker count: Scale.Parallelism when set,
// else one worker per CPU.
func (sc Scale) workers() int {
	if sc.Parallelism > 0 {
		return sc.Parallelism
	}
	return runtime.NumCPU()
}

// parMap evaluates fn(0..n-1) and returns the results in index order.
// With one worker it runs inline, preserving today's sequential execution
// exactly; otherwise a bounded worker pool executes cells concurrently.
// fn must only touch cell-local state; results
// are merged by index, so output ordering never depends on scheduling.
func parMap[T any](sc Scale, n int, fn func(int) T) []T {
	out := make([]T, n)
	w := sc.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// parGrid evaluates fn over a rows x cols grid, flattened row-major so a
// sweep parallelizes across both dimensions, and returns out[row][col].
func parGrid[T any](sc Scale, rows, cols int, fn func(row, col int) T) [][]T {
	flat := parMap(sc, rows*cols, func(i int) T { return fn(i/cols, i%cols) })
	out := make([][]T, rows)
	for r := range out {
		out[r] = flat[r*cols : (r+1)*cols]
	}
	return out
}
