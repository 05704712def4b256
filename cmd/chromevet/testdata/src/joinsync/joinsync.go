// Package fixture exercises the joinsync analyzer: every goroutine
// spawned in an internal package must signal completion and have that
// signal awaited in the package. Loaded by the driver test under
// chrome/internal/vetfixture/joinsync.
package fixture

import "sync"

// worker owns the termination handshake.
type worker struct {
	done chan struct{}
	out  chan int
}

// spawn is the good path: the body sends its result and closes the
// handshake channel, both of which collect awaits.
func (w *worker) spawn() {
	go func() {
		w.out <- 1
		close(w.done)
	}()
}

// collect joins on the handshake before using the result.
func (w *worker) collect() int {
	v := <-w.out
	<-w.done
	return v
}

// spawnWaitGroup is the WaitGroup form of the same discipline.
func spawnWaitGroup(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// fireAndForget spawns a goroutine that signals nothing: it can never be
// joined, so nothing downstream can know it finished.
func fireAndForget() {
	go func() { // want joinsync "signals no completion"
		_ = 1 + 1
	}()
}

// orphan signals on a channel nothing in the package ever awaits.
type orphan struct {
	finished chan struct{}
}

// start closes finished when done, but no receive exists anywhere.
func (o *orphan) start() {
	go func() { // want joinsync "never awaited"
		close(o.finished)
	}()
}

// external spawns a function value the analyzer cannot see into.
func external(f func()) {
	go f() // want joinsync "cannot be resolved"
}

var _ = []any{(*worker).spawn, (*worker).collect, spawnWaitGroup,
	fireAndForget, (*orphan).start, external}
