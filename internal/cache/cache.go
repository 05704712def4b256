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

// Block is the per-line metadata of one cache way.
type Block struct {
	// Valid marks the way as holding data.
	Valid bool
	// Tag is the block number (full address >> BlockShift).
	Tag mem.BlockAddr
	// Dirty marks the line as modified.
	Dirty bool
	// Prefetched marks a line whose fill was prefetch-initiated.
	Prefetched bool
	// Used marks a line that has been demand-hit since fill.
	Used bool
	// LastTouch is the cycle of the most recent access (LRU recency).
	LastTouch mem.Cycle
	// FillCycle is the cycle at which the line was filled.
	FillCycle mem.Cycle
	// FillPC is the PC of the fill-triggering instruction.
	FillPC mem.PC
	// FillCore is the index of the core that caused the fill.
	FillCore mem.CoreID
	// ReadyAt is the absolute cycle at which the line's data arrives from
	// below. A hit before ReadyAt merges with the in-flight fill and pays
	// the residual latency (the simulator enforces this; the cache only
	// stores the value).
	ReadyAt mem.Cycle
	// FillEpoch is the stats epoch (ResetStats generation) of the fill;
	// prefetch-usefulness is only credited to lines filled in the current
	// epoch so EPHR stays consistent across the warmup boundary.
	FillEpoch uint32
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
	// Ways is the associativity.
	Ways int
}

// Result reports the outcome of one access.
//
// Evicted is stored by value (with EvictedValid as the presence flag) so
// that returning a Result never heap-allocates: the eviction path runs on
// every fill of a warm cache, and a per-eviction *Evicted was the dominant
// allocation of the whole simulator (see DESIGN.md §7).
type Result struct {
	// Hit reports whether the access hit.
	Hit bool
	// Bypassed reports that the policy chose not to cache a missing block.
	Bypassed bool
	// EvictedValid reports that a fill displaced a valid line, described by
	// Evicted.
	EvictedValid bool
	// Evicted describes the displaced victim; meaningful only when
	// EvictedValid is true.
	Evicted Evicted
	// FirstUse reports a demand hit on a prefetched, not-yet-used line.
	FirstUse bool
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
	// Used reports whether the victim was demand-hit since fill.
	Used bool
	// Prefetched reports whether the victim was prefetch-filled.
	Prefetched bool
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg     Config
	setMask uint64
	blocks  []Block // sets*ways, row-major by set
	policy  Policy
	stats   Stats
	epoch   uint32 // stats generation, bumped by ResetStats

	// evictTracker, when non-nil, records unused evictions so Fig. 2's
	// "re-requested later" split can be measured.
	evictTracker *ReuseTracker
	// bypassTracker, when non-nil, records bypassed blocks so Fig. 9's
	// bypass efficiency (fraction never demanded again) can be measured.
	bypassTracker *ReuseTracker
}

// New builds a cache level with the given geometry and policy. Sets must be
// a power of two and both dimensions positive.
func New(cfg Config, p Policy) *Cache { //chromevet:allow aliasshare -- ownership transfer: each cache owns a freshly built policy (sim.New calls the factory per instance)
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: sets must be a positive power of two, got %d", cfg.Name, cfg.Sets))
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways must be positive, got %d", cfg.Name, cfg.Ways))
	}
	if p == nil {
		panic("cache: nil policy")
	}
	return &Cache{
		cfg:     cfg,
		setMask: uint64(cfg.Sets - 1),
		blocks:  make([]Block, cfg.Sets*cfg.Ways),
		policy:  p,
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

// SetEvictionTracker installs an optional unused-eviction tracker (Fig. 2).
func (c *Cache) SetEvictionTracker(t *ReuseTracker) { c.evictTracker = t } //chromevet:allow aliasshare -- ownership transfer: callers build one tracker per system

// SetBypassTracker installs an optional bypass-efficiency tracker (Fig. 9).
func (c *Cache) SetBypassTracker(t *ReuseTracker) { c.bypassTracker = t } //chromevet:allow aliasshare -- ownership transfer: callers build one tracker per system

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
		if b.Valid && b.Tag == tag {
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

	// Re-reference observation for the optional Fig. 2 / Fig. 9 trackers:
	// unused evictions count any re-request; bypass efficiency counts only
	// subsequent demand requests.
	if acc.Type != mem.Writeback {
		if c.evictTracker != nil {
			c.evictTracker.Observe(acc.Addr)
		}
		if c.bypassTracker != nil && acc.Type.IsDemand() {
			c.bypassTracker.Observe(acc.Addr)
		}
	}

	res := Result{}
	hit := false
	for w := range set {
		b := &set[w]
		if b.Valid && b.Tag == tag {
			res, hit = c.onHit(setIdx, w, set, acc), true
			break
		}
	}
	if !hit {
		res = c.onMiss(setIdx, set, acc)
	}
	c.checkSet(setIdx)
	return res
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
			res.FirstUse = true
		}
		b.Used = true
	}
	c.policy.OnHit(setIdx, way, set, acc)
	return res
}

//chromevet:hot
func (c *Cache) onMiss(setIdx mem.SetIdx, set []Block, acc mem.Access) Result {
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

	way, bypass := c.policy.Victim(setIdx, set, acc)
	if bypass {
		c.stats.Bypasses++
		if c.bypassTracker != nil {
			c.bypassTracker.Record(acc.Addr)
		}
		return Result{Bypassed: true}
	}
	if way < 0 || way >= c.cfg.Ways {
		panic(fmt.Sprintf("cache %s: policy %s returned invalid victim way %d", c.cfg.Name, c.policy.Name(), way))
	}

	res := Result{}
	victim := &set[way]
	if victim.Valid {
		c.stats.Evictions++
		if !victim.Used {
			c.stats.EvictionsUnused++
			if victim.Prefetched {
				c.stats.EvictionsUnusedPF++
			}
			if c.evictTracker != nil {
				c.evictTracker.Record(victim.Tag.Addr())
			}
		}
		if victim.Dirty {
			c.stats.Writebacks++
		}
		res.EvictedValid = true
		res.Evicted = Evicted{
			Addr:       victim.Tag.Addr(),
			Dirty:      victim.Dirty,
			Used:       victim.Used,
			Prefetched: victim.Prefetched,
		}
		c.policy.OnEvict(setIdx, way, set)
	}

	*victim = Block{
		Valid:      true,
		Tag:        acc.Addr.Block(),
		Dirty:      acc.Type == mem.Store,
		Prefetched: acc.Type == mem.Prefetch,
		LastTouch:  acc.Cycle,
		FillCycle:  acc.Cycle,
		FillPC:     acc.PC,
		FillCore:   acc.Core,
		FillEpoch:  c.epoch,
	}
	c.stats.Fills++
	if acc.Type == mem.Prefetch {
		c.stats.PrefetchFills++
	}
	res.Block = victim
	c.policy.OnFill(setIdx, way, set, acc)
	return res
}

// Invalidate removes the block holding addr, if present, returning whether
// it was dirty. Used for upper-level back-invalidation tests.
func (c *Cache) Invalidate(a mem.Addr) (present, dirty bool) {
	tag := a.Block()
	set := c.set(c.SetIndex(a))
	for w := range set {
		b := &set[w]
		if b.Valid && b.Tag == tag {
			present, dirty = true, b.Dirty
			*b = Block{}
			return
		}
	}
	return false, false
}

// ReuseTracker records a set of block addresses (unused evictions for
// Fig. 2, bypassed blocks for Fig. 9) and counts how many are subsequently
// re-requested. The tracked set is bounded; once full, new records are
// counted but not tracked (they land in the never-re-requested bucket,
// which is the conservative direction for both figures' claims).
type ReuseTracker struct {
	pending map[mem.Addr]struct{}
	limit   int

	// ReRequested counts tracked records later accessed again.
	ReRequested uint64
	// Total counts all recorded events.
	Total uint64
}

// NewReuseTracker builds a tracker bounded to limit pending addresses
// (limit <= 0 selects 1M).
func NewReuseTracker(limit int) *ReuseTracker {
	if limit <= 0 {
		limit = 1 << 20
	}
	return &ReuseTracker{pending: make(map[mem.Addr]struct{}), limit: limit}
}

// Record notes an event (unused eviction or bypass) for addr.
func (t *ReuseTracker) Record(addr mem.Addr) {
	t.Total++
	if len(t.pending) < t.limit {
		t.pending[addr.BlockAligned()] = struct{}{}
	}
}

// Observe notes a new access; if it matches a tracked record, the record is
// reclassified as re-requested.
func (t *ReuseTracker) Observe(addr mem.Addr) {
	key := addr.BlockAligned()
	if _, ok := t.pending[key]; ok {
		delete(t.pending, key)
		t.ReRequested++
	}
}

// NeverReRequested returns the count of records not (yet) seen again.
func (t *ReuseTracker) NeverReRequested() uint64 { return t.Total - t.ReRequested }

// ReRequestedRatio returns ReRequested/Total (0 when empty).
func (t *ReuseTracker) ReRequestedRatio() float64 {
	if t.Total == 0 {
		return 0
	}
	return float64(t.ReRequested) / float64(t.Total)
}
