// Package cache implements the set-associative caches of the simulated
// hierarchy. Replacement, bypassing, and hit-promotion behaviour is
// delegated to a pluggable Policy (see policy sub-packages and
// internal/chrome). Timing (latencies, MSHR back-pressure) is handled by
// internal/sim; this package is purely the state machine of a cache level.
package cache

import (
	"fmt"

	"chrome/internal/mem"
)

// Block is the per-line metadata of one cache way. Its fields are ordered
// by size and hold no pointers, so a Block is 32 bytes and a 12-way set
// spans six host cache lines (DESIGN.md §7, TestBlockSize).
type Block struct {
	// Tag is the block number (full address >> BlockShift). An invalid way
	// holds invalidTag, which no address has, so a tag compare alone tells
	// a hit.
	Tag mem.BlockAddr
	// LastTouch is the cycle of the most recent access (LRU recency).
	LastTouch mem.Cycle
	// ReadyAt is the absolute cycle at which the line's data arrives from
	// below. A hit before ReadyAt merges with the in-flight fill and pays
	// the residual latency (the simulator enforces this; the cache only
	// stores the value).
	ReadyAt mem.Cycle
	// FillEpoch is the stats epoch (ResetStats generation) of the fill;
	// prefetch-usefulness is only credited to lines filled in the current
	// epoch so EPHR stays consistent across the warmup boundary.
	FillEpoch uint32
	// Valid marks the way as holding data.
	Valid bool
	// Dirty marks the line as modified.
	Dirty bool
	// Prefetched marks a line whose fill was prefetch-initiated.
	Prefetched bool
	// Used marks a line that has been demand-hit since fill.
	Used bool
}

// Policy decides victim selection, bypassing, and metadata updates for a
// cache level. Implementations are synchronous and single-threaded (the
// simulator serializes accesses).
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Victim chooses a victim way in [0, ways) for the incoming miss, or
	// reports bypass=true to skip caching the block entirely. blocks is the
	// set content (read-only for the policy). An invalid way must be
	// preferred by implementations when one exists.
	Victim(set mem.SetIdx, blocks []Block, acc mem.Access) (way int, bypass bool)
	// OnHit notifies the policy of a hit at (set, way).
	OnHit(set mem.SetIdx, way int, blocks []Block, acc mem.Access)
	// OnFill notifies the policy after the block is inserted at (set, way).
	OnFill(set mem.SetIdx, way int, blocks []Block, acc mem.Access)
	// OnEvict notifies the policy before the block at (set, way) is
	// overwritten by a fill (only for valid victims).
	OnEvict(set mem.SetIdx, way int, blocks []Block)
}

// InvariantChecker is optionally implemented by policies that can validate
// their per-set metadata (RRPV or EPV bounds, dueling counters in range).
// The simulation sanitizer (build tag "simcheck") calls it after every
// access to the set; normal builds never invoke it.
type InvariantChecker interface {
	// CheckSetInvariants returns a non-nil error describing the first
	// violated invariant of the policy's metadata for the set, if any.
	CheckSetInvariants(set mem.SetIdx) error
}

// Stats accumulates per-level counters. All counters are measured-phase
// only when the owning simulation resets them after warmup.
type Stats struct {
	DemandLoadHits    uint64
	DemandLoadMisses  uint64
	DemandStoreHits   uint64
	DemandStoreMisses uint64
	PrefetchHits      uint64 // prefetch requests that hit
	PrefetchMisses    uint64
	PrefetchFills     uint64 // lines inserted by prefetch
	PrefetchUseful    uint64 // prefetched lines demand-hit at least once
	Fills             uint64
	Bypasses          uint64
	Evictions         uint64
	EvictionsUnused   uint64 // evicted without any demand hit
	EvictionsUnusedPF uint64 // unused evictions that were prefetched
	Writebacks        uint64 // dirty evictions sent down
	WritebackHits     uint64
	WritebackMisses   uint64
}

// DemandHits returns total demand (load+store) hits.
func (s *Stats) DemandHits() uint64 { return s.DemandLoadHits + s.DemandStoreHits }

// DemandMisses returns total demand (load+store) misses.
func (s *Stats) DemandMisses() uint64 { return s.DemandLoadMisses + s.DemandStoreMisses }

// DemandAccesses returns total demand accesses.
func (s *Stats) DemandAccesses() uint64 { return s.DemandHits() + s.DemandMisses() }

// DemandMissRatio returns demand misses / demand accesses (0 if none).
func (s *Stats) DemandMissRatio() float64 {
	a := s.DemandAccesses()
	if a == 0 {
		return 0
	}
	return float64(s.DemandMisses()) / float64(a)
}

// EPHR returns the effective prefetch hit ratio: the fraction of
// prefetch-inserted lines that were demand-hit before eviction (paper §VII-A).
func (s *Stats) EPHR() float64 {
	if s.PrefetchFills == 0 {
		return 0
	}
	return float64(s.PrefetchUseful) / float64(s.PrefetchFills)
}

// Config describes one cache level's geometry.
type Config struct {
	// Name labels the level in reports ("L1D", "L2", "LLC").
	Name string
	// Sets is the number of sets (power of two).
	Sets int
	// Ways is the associativity, at most MaxWays.
	Ways int
}

// MaxWays is the largest associativity New accepts: the victim scans pack
// a way index into a key's low five bits (DESIGN.md §7).
const MaxWays = 32

// invalidTag is the tag of every invalid way. A block number is an address
// shifted right by BlockShift, at most 2^58−1, so no access matches it.
const invalidTag = ^mem.BlockAddr(0)

// Result reports the outcome of one access. A bypass and a first use of a
// prefetched line show in Stats (Bypasses, PrefetchUseful).
//
// Evicted is stored by value (with EvictedValid as the presence flag) so
// that returning a Result never heap-allocates: the eviction path runs on
// every fill of a warm cache, and a per-eviction *Evicted was the dominant
// allocation of the whole simulator (see DESIGN.md §7).
type Result struct {
	// Hit reports whether the access hit.
	Hit bool
	// EvictedValid reports that a fill displaced a valid line, described by
	// Evicted.
	EvictedValid bool
	// Evicted describes the displaced victim; meaningful only when
	// EvictedValid is true.
	Evicted Evicted
	// Block points at the hit or freshly filled line (nil on bypass and on
	// writeback misses), letting the simulator read or set ReadyAt.
	Block *Block
}

// Evicted describes a victim line displaced by a fill.
type Evicted struct {
	// Addr is the block-aligned address of the victim.
	Addr mem.Addr
	// Dirty marks the victim as needing writeback.
	Dirty bool
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg     Config
	setMask uint64
	blocks  []Block // sets*ways, row-major by set
	policy  Policy
	// lru is set when policy is *LRU: the tag pass picks the victim and no
	// policy hook is called.
	lru   bool
	stats Stats
	epoch uint32 // stats generation, bumped by ResetStats
}

// New builds a cache level with the given geometry and policy. Sets must be
// a power of two and positive, and Ways in [1, MaxWays]. The cache owns p
// from here on: build a fresh policy per cache (sim.New calls its factory
// per level).
func New(cfg Config, p Policy) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: sets must be a positive power of two, got %d", cfg.Name, cfg.Sets))
	}
	if cfg.Ways <= 0 || cfg.Ways > MaxWays {
		panic(fmt.Sprintf("cache %s: ways must be in [1, %d], got %d", cfg.Name, MaxWays, cfg.Ways))
	}
	if p == nil {
		panic("cache: nil policy")
	}
	blocks := make([]Block, cfg.Sets*cfg.Ways)
	for i := range blocks {
		blocks[i].Tag = invalidTag
	}
	_, lru := p.(*LRU)
	return &Cache{
		cfg:     cfg,
		setMask: uint64(cfg.Sets - 1),
		blocks:  blocks,
		policy:  p,
		lru:     lru,
	}
}

// Config returns the level's geometry.
func (c *Cache) Config() Config { return c.cfg }

// Policy returns the installed policy.
func (c *Cache) Policy() Policy { return c.policy }

// Stats returns a pointer to the level's counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// ResetStats zeroes the counters and starts a new stats epoch (end of
// warmup).
func (c *Cache) ResetStats() {
	c.stats = Stats{}
	c.epoch++
}

// SetIndex returns the set index for an address.
func (c *Cache) SetIndex(a mem.Addr) mem.SetIdx {
	return a.Block().Set(c.setMask)
}

// set returns the block slice of one set.
func (c *Cache) set(idx mem.SetIdx) []Block {
	return c.blocks[idx.Int()*c.cfg.Ways : (idx.Int()+1)*c.cfg.Ways]
}

// Probe reports whether the address is present, without side effects.
//
//chromevet:hot
func (c *Cache) Probe(a mem.Addr) bool {
	tag := a.Block()
	for _, b := range c.set(c.SetIndex(a)) {
		if b.Tag == tag {
			return true
		}
	}
	return false
}

// Access performs one request against the level: a hit updates recency and
// policy metadata; a miss consults the policy for a victim or bypass and
// performs the fill. Writeback requests update a present line in place and
// never allocate (non-inclusive hierarchy; misses propagate down).
//
//chromevet:hot
func (c *Cache) Access(acc mem.Access) Result {
	setIdx := c.SetIndex(acc.Addr)
	set := c.set(setIdx)
	tag := acc.Addr.Block()

	var res Result
	if hit, victim := scan(set, tag); hit >= 0 {
		res = c.onHit(setIdx, hit, set, acc)
	} else {
		res = c.onMiss(setIdx, set, acc, victim)
	}
	c.checkSet(setIdx)
	return res
}

// scan is the tag pass: one loop over the set with no early exit that
// returns the way holding tag (-1 if none) and the LRU victim, the first
// invalid way or, when the set is full, the way with the oldest LastTouch,
// the lowest on ties. The victim is the minimum of one key per way, w when
// invalid and (LastTouch+1)<<5 | w when valid, so the loop compiles to
// compares and conditional moves (DESIGN.md §7); the keys hold while
// LastTouch+1 < 2^54, about 52 simulated days at 4 GHz. The pass keeps the
// last way that matches, which is the only one: a set never holds two
// valid copies of a tag (simcheck's checkSet), and invalid ways hold
// invalidTag.
//
//chromevet:hot
func scan(set []Block, tag mem.BlockAddr) (hit, victim int) {
	hit, best := -1, ^uint64(0)
	for w := range set {
		b := &set[w]
		if b.Tag == tag {
			hit = w
		}
		key := (b.LastTouch.Uint64()+1)<<5 | uint64(w)
		if !b.Valid {
			key = uint64(w)
		}
		best = min(best, key)
	}
	return hit, int(best % MaxWays)
}

//chromevet:hot
func (c *Cache) onHit(setIdx mem.SetIdx, way int, set []Block, acc mem.Access) Result {
	b := &set[way]
	b.LastTouch = acc.Cycle
	res := Result{Hit: true, Block: b}
	switch acc.Type {
	case mem.Load:
		c.stats.DemandLoadHits++
	case mem.Store:
		c.stats.DemandStoreHits++
		b.Dirty = true
	case mem.Prefetch:
		c.stats.PrefetchHits++
	case mem.Writeback:
		c.stats.WritebackHits++
		b.Dirty = true
		// Writebacks carry no reuse information; do not train the policy.
		return res
	}
	if acc.Type.IsDemand() {
		if b.Prefetched && !b.Used && b.FillEpoch == c.epoch {
			c.stats.PrefetchUseful++
		}
		b.Used = true
	}
	if !c.lru {
		c.policy.OnHit(setIdx, way, set, acc)
	}
	return res
}

// onMiss fills the victim field by field, in place, and builds its Result
// once, at the return (DESIGN.md §7, store forwarding). The victim is
// lruVictim, the tag pass's, when the policy is LRU, and the policy's
// otherwise.
//
//chromevet:hot
func (c *Cache) onMiss(setIdx mem.SetIdx, set []Block, acc mem.Access, lruVictim int) Result {
	switch acc.Type {
	case mem.Load:
		c.stats.DemandLoadMisses++
	case mem.Store:
		c.stats.DemandStoreMisses++
	case mem.Prefetch:
		c.stats.PrefetchMisses++
	case mem.Writeback:
		c.stats.WritebackMisses++
		// Non-inclusive: a writeback that misses is forwarded down by the
		// caller; no allocation here.
		return Result{}
	}

	way := lruVictim
	if !c.lru {
		var bypass bool
		way, bypass = c.policy.Victim(setIdx, set, acc)
		if bypass {
			c.stats.Bypasses++
			return Result{}
		}
		if way < 0 || way >= c.cfg.Ways {
			panic(fmt.Sprintf("cache %s: policy %s returned invalid victim way %d", c.cfg.Name, c.policy.Name(), way))
		}
	}

	victim := &set[way]
	evicted, evictedAddr, evictedDirty := victim.Valid, victim.Tag.Addr(), victim.Valid && victim.Dirty
	if evicted {
		c.stats.Evictions++
		if !victim.Used {
			c.stats.EvictionsUnused++
			if victim.Prefetched {
				c.stats.EvictionsUnusedPF++
			}
		}
		if evictedDirty {
			c.stats.Writebacks++
		}
		if !c.lru {
			c.policy.OnEvict(setIdx, way, set)
		}
	}

	victim.Tag = acc.Addr.Block()
	victim.LastTouch = acc.Cycle
	victim.ReadyAt = 0
	victim.FillEpoch = c.epoch
	victim.Valid = true
	victim.Dirty = acc.Type == mem.Store
	victim.Prefetched = acc.Type == mem.Prefetch
	victim.Used = false
	c.stats.Fills++
	if acc.Type == mem.Prefetch {
		c.stats.PrefetchFills++
	}
	if !c.lru {
		c.policy.OnFill(setIdx, way, set, acc)
	}
	return Result{EvictedValid: evicted, Evicted: Evicted{Addr: evictedAddr, Dirty: evictedDirty}, Block: victim}
}

// LRU is the least-recently-used baseline: evict the way with the oldest
// LastTouch, the first invalid way while the set has one; never bypass.
// Recency is the cache's own Block.LastTouch, so the hooks are empty, and a
// cache whose policy is *LRU takes the victim from its tag pass and calls
// none of them. A wrapper around LRU is another policy and is called as
// any other.
type LRU struct{}

// Name implements Policy.
func (*LRU) Name() string { return "LRU" }

// Victim implements Policy with the tag pass's victim.
func (*LRU) Victim(_ mem.SetIdx, blocks []Block, _ mem.Access) (int, bool) {
	_, way := scan(blocks, invalidTag)
	return way, false
}

// OnHit implements Policy.
func (*LRU) OnHit(mem.SetIdx, int, []Block, mem.Access) {}

// OnFill implements Policy.
func (*LRU) OnFill(mem.SetIdx, int, []Block, mem.Access) {}

// OnEvict implements Policy.
func (*LRU) OnEvict(mem.SetIdx, int, []Block) {}
