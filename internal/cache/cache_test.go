package cache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"unsafe"

	"chrome/internal/mem"
)

// lruPolicy is a minimal test policy: LRU victim, never bypass.
type lruPolicy struct{}

func (*lruPolicy) Name() string { return "test-lru" }
func (*lruPolicy) Victim(_ mem.SetIdx, blocks []Block, _ mem.Access) (int, bool) {
	best, bestTouch := 0, ^mem.Cycle(0)
	for w := range blocks {
		if !blocks[w].Valid {
			return w, false
		}
		if blocks[w].LastTouch < bestTouch {
			best, bestTouch = w, blocks[w].LastTouch
		}
	}
	return best, false
}
func (*lruPolicy) OnHit(mem.SetIdx, int, []Block, mem.Access)  {}
func (*lruPolicy) OnFill(mem.SetIdx, int, []Block, mem.Access) {}
func (*lruPolicy) OnEvict(mem.SetIdx, int, []Block)            {}

// bypassAll bypasses every miss.
type bypassAll struct{ lruPolicy }

func (*bypassAll) Victim(mem.SetIdx, []Block, mem.Access) (int, bool) { return 0, true }

func newTestCache(t *testing.T, sets, ways int) *Cache {
	t.Helper()
	return New(Config{Name: "T", Sets: sets, Ways: ways}, &lruPolicy{})
}

func load(addr mem.Addr, cycle mem.Cycle) mem.Access {
	return mem.Access{PC: 0x400, Addr: addr, Type: mem.Load, Cycle: cycle}
}

func TestMissThenHit(t *testing.T) {
	c := newTestCache(t, 16, 4)
	if res := c.Access(load(0x1000, 1)); res.Hit {
		t.Fatal("first access should miss")
	}
	if res := c.Access(load(0x1000, 2)); !res.Hit {
		t.Fatal("second access should hit")
	}
	if res := c.Access(load(0x1008, 3)); !res.Hit {
		t.Fatal("same-block access should hit")
	}
	st := c.Stats()
	if st.DemandLoadMisses != 1 || st.DemandLoadHits != 2 {
		t.Fatalf("stats = %+v, want 1 miss / 2 hits", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newTestCache(t, 1, 2) // one set, two ways
	c.Access(load(0x0000, 1))
	c.Access(load(0x0040, 2))
	// Touch the first block so the second becomes LRU.
	c.Access(load(0x0000, 3))
	res := c.Access(load(0x0080, 4))
	if res.Hit || !res.EvictedValid {
		t.Fatal("expected an eviction on the third distinct block")
	}
	if res.Evicted.Addr != 0x0040 {
		t.Fatalf("evicted %#x, want 0x40 (the LRU block)", uint64(res.Evicted.Addr))
	}
	if !c.Probe(0x0000) || c.Probe(0x0040) || !c.Probe(0x0080) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestDirtyEvictionIsWriteback(t *testing.T) {
	c := newTestCache(t, 1, 1)
	c.Access(mem.Access{Addr: 0x0, Type: mem.Store, Cycle: 1})
	res := c.Access(load(0x40, 2))
	if !res.EvictedValid || !res.Evicted.Dirty {
		t.Fatal("expected a dirty eviction after a store")
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestWritebackNeverAllocates(t *testing.T) {
	c := newTestCache(t, 4, 2)
	res := c.Access(mem.Access{Addr: 0x100, Type: mem.Writeback, Cycle: 1})
	if res.Hit {
		t.Fatal("writeback to empty cache should miss")
	}
	if c.Probe(0x100) {
		t.Fatal("writeback miss must not allocate")
	}
	if c.Stats().WritebackMisses != 1 {
		t.Fatalf("writeback misses = %d, want 1", c.Stats().WritebackMisses)
	}
	// Writeback to a present clean line marks it dirty.
	c.Access(load(0x200, 2))
	c.Access(mem.Access{Addr: 0x200, Type: mem.Writeback, Cycle: 3})
	if st := c.Stats(); st.WritebackHits != 1 {
		t.Fatalf("writeback hits = %d, want 1", st.WritebackHits)
	}
	res = c.Access(load(0x200+0x40*4*2, 4)) // different block, same set? ensure eviction
	_ = res
}

func TestBypassDoesNotFill(t *testing.T) {
	c := New(Config{Name: "T", Sets: 4, Ways: 2}, &bypassAll{})
	res := c.Access(load(0x40, 1))
	if res.Hit || res.Block != nil {
		t.Fatalf("expected bypass with nil block, got %+v", res)
	}
	if c.Probe(0x40) {
		t.Fatal("bypassed block must not be cached")
	}
	if c.Stats().Bypasses != 1 || c.Stats().Fills != 0 {
		t.Fatalf("stats %+v, want 1 bypass 0 fills", c.Stats())
	}
}

func TestPrefetchUsefulAccounting(t *testing.T) {
	c := newTestCache(t, 4, 2)
	c.Access(mem.Access{Addr: 0x40, Type: mem.Prefetch, Cycle: 1})
	if c.Stats().PrefetchFills != 1 {
		t.Fatal("prefetch miss should fill")
	}
	// A prefetch hit does not count as useful.
	c.Access(mem.Access{Addr: 0x40, Type: mem.Prefetch, Cycle: 2})
	if c.Stats().PrefetchUseful != 0 {
		t.Fatal("prefetch hits must not count as useful")
	}
	if res := c.Access(load(0x40, 3)); !res.Hit || c.Stats().PrefetchUseful != 1 {
		t.Fatal("first demand hit on a prefetched line must count as useful")
	}
	// Second demand hit must not double count.
	c.Access(load(0x40, 4))
	if c.Stats().PrefetchUseful != 1 {
		t.Fatal("prefetch usefulness double-counted")
	}
	if got := c.Stats().EPHR(); got != 1.0 {
		t.Fatalf("EPHR = %v, want 1.0", got)
	}
}

func TestEPHREpochBoundary(t *testing.T) {
	c := newTestCache(t, 4, 2)
	c.Access(mem.Access{Addr: 0x40, Type: mem.Prefetch, Cycle: 1})
	c.ResetStats()
	// The line was filled before the epoch boundary: using it now must not
	// count toward this epoch's EPHR numerator.
	c.Access(load(0x40, 2))
	if c.Stats().PrefetchUseful != 0 {
		t.Fatal("pre-epoch prefetch fill credited to the new epoch")
	}
}

func TestUnusedEvictionStats(t *testing.T) {
	c := newTestCache(t, 1, 1)
	c.Access(mem.Access{Addr: 0x0, Type: mem.Prefetch, Cycle: 1})
	c.Access(load(0x40, 2)) // evicts the unused prefetched line
	st := c.Stats()
	if st.EvictionsUnused != 1 || st.EvictionsUnusedPF != 1 {
		t.Fatalf("stats %+v, want 1 unused (prefetched) eviction", st)
	}
	// A used line does not count.
	c.Access(load(0x40, 3))
	c.Access(load(0x80, 4))
	if st := c.Stats(); st.EvictionsUnused != 1 {
		t.Fatalf("used eviction miscounted: %+v", st)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Name: "x", Sets: 0, Ways: 1},
		{Name: "x", Sets: 3, Ways: 1},
		{Name: "x", Sets: 4, Ways: 0},
		{Name: "x", Sets: 4, Ways: MaxWays + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", bad)
				}
			}()
			New(bad, &lruPolicy{})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil policy should panic")
			}
		}()
		New(Config{Name: "x", Sets: 4, Ways: 1}, nil)
	}()
	New(Config{Name: "x", Sets: 4, Ways: MaxWays}, &lruPolicy{}) // the widest set the victim keys allow
}

func TestSetIndexWithinRange(t *testing.T) {
	c := newTestCache(t, 64, 4)
	f := func(a uint64) bool {
		idx := c.SetIndex(mem.Addr(a)).Int()
		return idx >= 0 && idx < 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestOccupancyInvariant property: after any access sequence, every set
// holds at most `ways` valid blocks with distinct tags, and Probe agrees
// with a shadow model.
func TestOccupancyInvariant(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := newTestCache(t, 8, 2)
		for i, a16 := range addrs {
			addr := mem.Addr(a16) << 6
			c.Access(load(addr, mem.Cycle(i+1)))
		}
		// Distinct-tag invariant per set.
		for set := 0; set < 8; set++ {
			seen := map[mem.BlockAddr]bool{}
			n := 0
			for _, b := range c.set(mem.SetIdxOf(set)) {
				if b.Valid {
					n++
					if seen[b.Tag] {
						return false
					}
					seen[b.Tag] = true
					if int(b.Tag.Uint64()&7) != set {
						return false // block in the wrong set
					}
				}
			}
			if n > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLRUMatchesReference property: the cache under the LRU policy must
// behave identically to a straightforward reference LRU model.
func TestLRUMatchesReference(t *testing.T) {
	const sets, ways = 4, 3
	f := func(addrs []uint8) bool {
		c := newTestCache(t, sets, ways)
		ref := make(map[int][]uint64) // set -> tags, MRU first
		for i, a8 := range addrs {
			addr := mem.Addr(a8) << 6
			tag := addr.Block().Uint64()
			set := int(tag) % sets

			wantHit := false
			for _, tg := range ref[set] {
				if tg == tag {
					wantHit = true
					break
				}
			}
			res := c.Access(load(addr, mem.Cycle(i+1)))
			if res.Hit != wantHit {
				return false
			}
			// Update reference LRU.
			lst := ref[set]
			for j, tg := range lst {
				if tg == tag {
					lst = append(lst[:j], lst[j+1:]...)
					break
				}
			}
			lst = append([]uint64{tag}, lst...)
			if len(lst) > ways {
				lst = lst[:ways]
			}
			ref[set] = lst
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFreshCacheMissesBlockZero: a fresh way holds invalidTag, not 0, so
// the tag pass, which compares tags alone, misses on block address 0 and on
// the highest block number an address can have.
func TestFreshCacheMissesBlockZero(t *testing.T) {
	for _, p := range []Policy{&LRU{}, &lruPolicy{}} {
		c := New(Config{Name: "T", Sets: 4, Ways: 2}, p)
		for _, addr := range []mem.Addr{0, ^mem.Addr(0)} {
			if c.Probe(addr) {
				t.Fatalf("%s: fresh cache probes %#x present", p.Name(), uint64(addr))
			}
			if res := c.Access(load(addr, 1)); res.Hit || res.EvictedValid {
				t.Fatalf("%s: fresh cache access to %#x: %+v, want a miss into an invalid way", p.Name(), uint64(addr), res)
			}
			if res := c.Access(load(addr, 2)); !res.Hit {
				t.Fatalf("%s: second access to %#x missed", p.Name(), uint64(addr))
			}
		}
	}
}

// TestLRUTagPassMatchesHooks holds a cache under LRU, which takes its
// victim from the tag pass and calls no hook, to one whose policy picks
// the victim with the early-exit scan through the hooks: every access
// must return the same result and leave the same blocks, over random
// loads, stores, prefetches and writebacks, with stats reset midway.
func TestLRUTagPassMatchesHooks(t *testing.T) {
	for _, ways := range []int{1, 2, 12, MaxWays} {
		r := rand.New(rand.NewPCG(uint64(ways), 3))
		cfg := Config{Name: "T", Sets: 4, Ways: ways}
		got, want := New(cfg, &LRU{}), New(cfg, &lruPolicy{})
		for i := 0; i < 20000; i++ {
			acc := mem.Access{
				PC:    0x400,
				Addr:  mem.Addr(r.Uint64N(uint64(8*ways)) << mem.BlockShift),
				Type:  mem.AccessType(r.IntN(4)),
				Cycle: mem.CycleOf(uint64(i / 3)), // ties in LastTouch
			}
			if i == 10000 {
				got.ResetStats()
				want.ResetStats()
			}
			g, w := got.Access(acc), want.Access(acc)
			if g.Hit != w.Hit || g.EvictedValid != w.EvictedValid ||
				(g.EvictedValid && g.Evicted != w.Evicted) || (g.Block == nil) != (w.Block == nil) {
				t.Fatalf("ways %d access %d %+v: tag pass %+v, hooks %+v", ways, i, acc, g, w)
			}
		}
		for i := range got.blocks {
			if got.blocks[i] != want.blocks[i] {
				t.Fatalf("ways %d block %d: tag pass %+v, hooks %+v", ways, i, got.blocks[i], want.blocks[i])
			}
		}
		if *got.Stats() != *want.Stats() {
			t.Fatalf("ways %d: stats %+v, hooks %+v", ways, *got.Stats(), *want.Stats())
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{DemandLoadHits: 3, DemandStoreHits: 1, DemandLoadMisses: 4, DemandStoreMisses: 2}
	if s.DemandHits() != 4 || s.DemandMisses() != 6 || s.DemandAccesses() != 10 {
		t.Fatal("demand arithmetic wrong")
	}
	if got := s.DemandMissRatio(); got != 0.6 {
		t.Fatalf("miss ratio = %v, want 0.6", got)
	}
	var zero Stats
	if zero.DemandMissRatio() != 0 || zero.EPHR() != 0 {
		t.Fatal("zero stats should produce zero ratios")
	}
}

// TestBlockSize gates the line layout every set scan reads: a 12-way set
// of 32-byte blocks spans six host cache lines (DESIGN.md §7).
func TestBlockSize(t *testing.T) {
	if got := unsafe.Sizeof(Block{}); got != 32 {
		t.Fatalf("cache.Block is %d bytes, want 32: keep its fields ordered by size (8-byte fields, then FillEpoch, then the bools), and justify in DESIGN.md §7 any field that grows the line", got)
	}
}
