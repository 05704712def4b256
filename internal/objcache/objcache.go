// Package objcache is the first service-shaped component of the CHROME
// repository (ROADMAP: CHROME-as-a-service): a power-of-two lock-sharded,
// size-aware in-memory object store whose admission, placement, and
// eviction decisions come from a pluggable per-shard Policy — plain LRU,
// or the CHROME agent lifted out of the simulator (chrome.Agent.Step)
// learning online from the live request stream.
//
// Each shard keeps its objects in four eviction bands mirroring the
// agent's 2-bit EPV: band 3 is evicted first, band 0 last, and within a
// band the least recently touched object goes first — exactly the
// simulator's victimByEPV order, transplanted from fixed ways to
// variable-size objects with byte-capacity accounting. Objects larger
// than a shard's capacity bypass the store outright.
//
// The shard is the concurrency unit: every mutable field is touched only
// under the shard mutex, which the thin exported wrappers take before
// calling the per-operation helpers, and no code path holds two shard
// locks at once. TestStatsConservation checks that discipline under the
// race detector (DESIGN.md §12.2).
//
// The policy learns from the request stream at two points: a Get hit
// (Touch — the re-reference signal) and a Set of an absent key (Admit —
// in the cache-aside pattern the client Sets what it just missed, so the
// Set carries the miss signal). A Get miss alone does not reach the
// policy; pure-read workloads that never fill teach it nothing.
package objcache

import (
	"fmt"
	"math/bits"
	"sync"
)

// entryOverhead approximates the per-object bookkeeping cost (entry
// struct, map bucket share) charged against the byte capacity, so a
// million tiny objects cannot blow the real heap while the accounted
// bytes look fine.
const entryOverhead = 64

// Config shapes a Cache.
type Config struct {
	// Shards is the number of independently locked shards (power of two;
	// default 8). Keys spread by hash; each shard owns its own policy.
	Shards int
	// CapacityBytes is the total byte capacity, split evenly across
	// shards (default 64 MiB). Accounted bytes include key, value, and
	// entryOverhead per object.
	CapacityBytes int64
	// Policy selects the eviction brain: "lru" (default) or "chrome".
	Policy string
	// Seed derives the per-shard agent seeds and the key-hash mixing;
	// equal seeds and equal request streams give byte-identical behavior.
	Seed uint64
}

// withDefaults validates cfg and fills zero fields.
func (cfg Config) withDefaults() Config {
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.Shards < 1 || cfg.Shards&(cfg.Shards-1) != 0 {
		panic(fmt.Sprintf("objcache: Shards must be a power of two, got %d", cfg.Shards))
	}
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = 64 << 20
	}
	if cfg.CapacityBytes < int64(cfg.Shards) {
		panic(fmt.Sprintf("objcache: CapacityBytes %d below one byte per shard", cfg.CapacityBytes))
	}
	if cfg.Policy == "" {
		cfg.Policy = "lru"
	}
	return cfg
}

// Stats counts one shard's activity (or, summed, the whole cache's). All
// fields are monotone counters; the gauges live on the Cache (Len,
// SizeBytes). The simcheck build verifies the conservation laws after
// every operation: Admits-Evictions-Deletes equals the live object count,
// and BytesAdmitted+BytesResized-BytesEvicted-BytesDeleted equals the
// accounted bytes.
type Stats struct {
	Gets     int64 // Get calls
	Hits     int64 // Gets that found the key
	BytesHit int64 // value bytes served from Hits

	Sets     int64 // Set calls
	Updates  int64 // Sets that replaced an existing value
	Admits   int64 // Sets admitted as new objects
	Bypasses int64 // Sets not admitted (policy bypass or oversize)

	Deletes   int64 // objects removed by Delete (or oversize updates)
	Evictions int64 // objects removed to fit the byte capacity

	BytesAdmitted int64 // accounted bytes of Admits
	BytesResized  int64 // net accounted-byte delta of Updates (signed)
	BytesEvicted  int64 // accounted bytes of Evictions
	BytesDeleted  int64 // accounted bytes of Deletes
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.Gets += o.Gets
	s.Hits += o.Hits
	s.BytesHit += o.BytesHit
	s.Sets += o.Sets
	s.Updates += o.Updates
	s.Admits += o.Admits
	s.Bypasses += o.Bypasses
	s.Deletes += o.Deletes
	s.Evictions += o.Evictions
	s.BytesAdmitted += o.BytesAdmitted
	s.BytesResized += o.BytesResized
	s.BytesEvicted += o.BytesEvicted
	s.BytesDeleted += o.BytesDeleted
}

// entry is one stored object, linked into its eviction band's recency
// list.
type entry struct {
	key        string
	val        []byte
	band       uint8 // eviction band 0..3, the Decision's EPV
	prev, next *entry
}

// bandList is one eviction band's recency list: head is most recently
// touched, tail is the band's victim.
type bandList struct {
	head, tail *entry
}

func (l *bandList) push(e *entry) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *bandList) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// shard owns one slice of the key space behind its own mutex. Every
// field below mu is touched only while mu is held; shard's methods expect
// their caller to hold it.
type shard struct {
	capBytes int64 // immutable after construction

	mu    sync.Mutex
	table map[string]*entry
	bands [4]bandList
	bytes int64
	stats Stats
	pol   Policy
}

// Cache is the sharded store. All methods are safe for concurrent use.
type Cache struct {
	shards    []*shard
	shardMask uint64
	seed      uint64
}

// New builds a Cache. Invalid configuration panics: construction happens
// at service startup, where a misconfiguration should be loud.
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{
		shards:    make([]*shard, cfg.Shards),
		shardMask: uint64(cfg.Shards - 1),
		seed:      cfg.Seed,
	}
	per := cfg.CapacityBytes / int64(cfg.Shards)
	for i := range c.shards {
		c.shards[i] = &shard{
			capBytes: per,
			table:    map[string]*entry{},
			pol:      newPolicy(cfg, i),
		}
	}
	return c
}

// hashKey is FNV-1a over the key, folded with the cache seed. The low 64
// bits feed the policy's address space; the top bits pick the shard (the
// agent's set index uses the low bits, so shard and set selection stay
// independent).
func (c *Cache) hashKey(key string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset) ^ c.seed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return h
}

func (c *Cache) shardFor(h uint64) *shard {
	return c.shards[(h>>48)&c.shardMask]
}

// entrySize is the accounted cost of one object.
func entrySize(key string, val []byte) int64 {
	return int64(len(key)) + int64(len(val)) + entryOverhead
}

// sizeClass buckets an object size into its bit length, the coarse size
// signal the chrome policy folds into the PC feature.
func sizeClass(size int64) int {
	return bits.Len64(uint64(size))
}

// Get returns the value stored under key. The returned slice is the
// stored backing array, not a copy: callers must not mutate it.
func (c *Cache) Get(key string) ([]byte, bool) {
	h := c.hashKey(key)
	s := c.shardFor(h)
	s.mu.Lock()
	v, ok := s.get(key, h)
	s.check()
	s.mu.Unlock()
	return v, ok
}

// Set stores val under key, admitting, replacing, or bypassing per the
// shard policy, and evicts until the shard fits its byte capacity. The
// value slice is retained: callers must not mutate it afterwards.
func (c *Cache) Set(key string, val []byte) {
	h := c.hashKey(key)
	s := c.shardFor(h)
	s.mu.Lock()
	s.set(key, val, h)
	s.check()
	s.mu.Unlock()
}

// Delete removes key, reporting whether it was present.
func (c *Cache) Delete(key string) bool {
	h := c.hashKey(key)
	s := c.shardFor(h)
	s.mu.Lock()
	ok := s.del(key)
	s.check()
	s.mu.Unlock()
	return ok
}

// Len returns the live object count.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.table)
		s.mu.Unlock()
	}
	return n
}

// SizeBytes returns the accounted bytes across shards.
func (c *Cache) SizeBytes() int64 {
	var b int64
	for _, s := range c.shards {
		s.mu.Lock()
		b += s.bytes
		s.mu.Unlock()
	}
	return b
}

// Stats returns the summed counters of all shards. Each shard is read
// under its own lock; the sum is not an atomic snapshot across shards.
func (c *Cache) Stats() Stats {
	var t Stats
	for _, s := range c.shards {
		s.mu.Lock()
		t.add(s.stats)
		s.mu.Unlock()
	}
	return t
}

// ShardStats returns a copy of every shard's counters, index-aligned with
// the shard layout (conservation tests compare their sum to Stats).
func (c *Cache) ShardStats() []Stats {
	out := make([]Stats, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = s.stats
		s.mu.Unlock()
	}
	return out
}

// PolicyName reports the configured policy's name.
func (c *Cache) PolicyName() string {
	s := c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pol.Name()
}

// get serves one lookup: count, touch, re-band.
func (s *shard) get(key string, h uint64) ([]byte, bool) {
	s.stats.Gets++
	e, ok := s.table[key]
	if !ok {
		return nil, false
	}
	s.stats.Hits++
	s.stats.BytesHit += int64(len(e.val))
	band := s.pol.Touch(Request{KeyHash: h, Size: entrySize(e.key, e.val)})
	s.moveToBand(e, band)
	return e.val, true
}

// set serves one store: update-in-place with a resize, or an
// admission/bypass decision for a new key, then eviction to capacity.
func (s *shard) set(key string, val []byte, h uint64) {
	s.stats.Sets++
	need := entrySize(key, val)
	if e, ok := s.table[key]; ok {
		if need > s.capBytes {
			// The updated object no longer fits at all: drop it.
			s.stats.Deletes++
			s.stats.BytesDeleted += entrySize(e.key, e.val)
			s.removeEntry(e)
			s.stats.Bypasses++
			return
		}
		s.stats.Updates++
		delta := need - entrySize(e.key, e.val)
		e.val = val
		s.bytes += delta
		s.stats.BytesResized += delta
		band := s.pol.Touch(Request{KeyHash: h, Size: need})
		s.moveToBand(e, band)
		s.evictOver()
		return
	}
	if need > s.capBytes {
		s.stats.Bypasses++
		return
	}
	band, admit := s.pol.Admit(Request{KeyHash: h, Size: need})
	if !admit {
		s.stats.Bypasses++
		return
	}
	e := &entry{key: key, val: val, band: band & 3}
	s.table[key] = e
	s.bands[e.band].push(e)
	s.bytes += need
	s.stats.Admits++
	s.stats.BytesAdmitted += need
	s.evictOver()
}

// del removes one key if present.
func (s *shard) del(key string) bool {
	e, ok := s.table[key]
	if !ok {
		return false
	}
	s.stats.Deletes++
	s.stats.BytesDeleted += entrySize(e.key, e.val)
	s.removeEntry(e)
	return true
}

// moveToBand re-files e under band at most-recently-touched position.
func (s *shard) moveToBand(e *entry, band uint8) {
	s.bands[e.band].unlink(e)
	e.band = band & 3
	s.bands[e.band].push(e)
}

// removeEntry unlinks e from its band and the table and returns its
// bytes.
func (s *shard) removeEntry(e *entry) {
	s.bands[e.band].unlink(e)
	delete(s.table, e.key)
	s.bytes -= entrySize(e.key, e.val)
}

// evictOver evicts victims until the shard fits its capacity: highest
// band first, least recently touched within the band — victimByEPV's
// order on variable-size objects.
func (s *shard) evictOver() {
	for s.bytes > s.capBytes {
		e := s.victim()
		if e == nil {
			return
		}
		s.stats.Evictions++
		s.stats.BytesEvicted += entrySize(e.key, e.val)
		s.removeEntry(e)
	}
}

// victim returns the next object to evict, or nil on an empty shard.
func (s *shard) victim() *entry {
	for b := 3; b >= 0; b-- {
		if t := s.bands[b].tail; t != nil {
			return t
		}
	}
	return nil
}
