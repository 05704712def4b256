package cache

import (
	"testing"

	"chrome/internal/mem"
)

// badPolicy returns out-of-range victim ways to verify the cache guards
// against misbehaving policies instead of corrupting memory.
type badPolicy struct {
	lruPolicy
	way int
}

func (p *badPolicy) Victim(mem.SetIdx, []Block, mem.Access) (int, bool) { return p.way, false }

func TestCachePanicsOnInvalidVictim(t *testing.T) {
	for _, way := range []int{-1, 2, 100} {
		c := New(Config{Name: "T", Sets: 4, Ways: 2}, &badPolicy{way: way})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("victim way %d did not panic", way)
				}
			}()
			c.Access(load(0x40, 1))
		}()
	}
}

// evictThrash evicts way 0 always; the cache must stay consistent.
type evictThrash struct{ lruPolicy }

func (*evictThrash) Victim(mem.SetIdx, []Block, mem.Access) (int, bool) { return 0, false }

func TestCacheSurvivesDegenerateVictim(t *testing.T) {
	c := New(Config{Name: "T", Sets: 2, Ways: 2}, &evictThrash{})
	for i := 0; i < 1000; i++ {
		c.Access(load(mem.Addr(i*64), mem.Cycle(i)))
	}
	// Way 1 of each set only ever receives the first two fills; the cache
	// must still probe consistently.
	st := c.Stats()
	if st.Fills == 0 || st.Evictions == 0 {
		t.Fatal("degenerate policy produced no activity")
	}
}
