// Package fixture exercises the hotblock analyzer: functions annotated
// //chromevet:hot must never block — no sync primitives, channel
// operations, timer waits, or I/O (DESIGN.md §11). Loaded by the driver
// test under chrome/internal/vetfixture/hotblock so the internal scope
// applies.
package fixture

import (
	"fmt"
	"os"
	"sync"
	"time"
)

type waiter struct {
	mu sync.Mutex
	ch chan int
}

// hotLock takes a mutex on the per-access path.
//
//chromevet:hot
func (w *waiter) hotLock() {
	w.mu.Lock()         // want hotblock "call to sync.Mutex.Lock in hot function hotLock"
	defer w.mu.Unlock() // want hotblock "call to sync.Mutex.Unlock in hot function hotLock"
}

// hotChan parks on channel operations.
//
//chromevet:hot
func (w *waiter) hotChan(v int) int {
	w.ch <- v // want hotblock "channel send in hot function hotChan"
	select {  // want hotblock "select statement in hot function hotChan"
	case x := <-w.ch: // want hotblock "channel receive in hot function hotChan"
		return x
	default:
		return 0
	}
}

// hotDrain blocks on every iteration.
//
//chromevet:hot
func (w *waiter) hotDrain() int {
	total := 0
	for v := range w.ch { // want hotblock "range over a channel in hot function hotDrain"
		total += v
	}
	return total
}

// hotWait sleeps and reads a file mid-access.
//
//chromevet:hot
func hotWait() int {
	time.Sleep(time.Millisecond) // want hotblock "call to time.Sleep in hot function hotWait"
	b, _ := os.ReadFile("x")     // want hotblock "I/O call to os.ReadFile in hot function hotWait"
	return len(b)
}

// hotLog writes to a stream per access.
//
//chromevet:hot
func hotLog(v int) {
	fmt.Println(v) // want hotblock "call to fmt.Println in hot function hotLog"
}

// coldDrain is not annotated: blocking is fine off the hot path.
func (w *waiter) coldDrain() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case v := <-w.ch:
		return v
	default:
		return 0
	}
}
