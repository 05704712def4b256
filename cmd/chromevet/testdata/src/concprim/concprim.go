// Package fixture exercises the concprim analyzer: the core simulator
// packages are single-threaded by design, so any concurrency primitive
// there is a finding. Loaded by the driver test under the import path
// chrome/internal/cache/parfixture so the core-package scope applies.
package fixture

import "sync" // want concprim "import of sync"

// guarded wraps its state in a mutex: locking implies the type expects
// cross-goroutine sharing, which core packages must not.
type guarded struct {
	mu sync.Mutex
	n  int
}

// bump takes the lock (no extra finding: the import already reports the
// sync dependency once per file).
func (g *guarded) bump() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

// fanOut spawns workers and collects their results over a channel.
func fanOut(xs []int) int {
	ch := make(chan int, len(xs)) // want concprim "channel type"
	for _, x := range xs {
		go func(v int) { // want concprim "goroutine spawn"
			ch <- v * v // want concprim "channel send"
		}(x)
	}
	total := 0
	for range xs {
		total += <-ch // want concprim "channel receive"
	}
	return total
}

// drain consumes a channel until it closes.
func drain(ch <-chan int) int { // want concprim "channel type"
	total := 0
	for v := range ch { // want concprim "range over channel"
		total += v
	}
	return total
}

// pick multiplexes two sources.
func pick(a, b <-chan int) int { // want concprim "channel type"
	select { // want concprim "select statement"
	case v := <-a: // want concprim "channel receive"
		return v
	case v := <-b: // want concprim "channel receive"
		return v
	}
}

// tally is the negative case: plain single-threaded accumulation.
func tally(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

var _ = []any{(*guarded).bump, fanOut, drain, pick, tally}
