// Package policy implements the LLC management schemes the CHROME paper
// compares against: LRU (the baseline), SRRIP (shared infrastructure),
// Hawkeye, Glider, Mockingjay, CARE, and SHiP++ (extension). Each policy
// satisfies the cache.Policy interface; CHROME itself lives in
// internal/chrome and plugs into the same interface.
package policy

import (
	"chrome/internal/cache"
	"chrome/internal/mem"
)

// invalidWay returns the first invalid way, or -1 when the set is full.
func invalidWay(blocks []cache.Block) int {
	for w := range blocks {
		if !blocks[w].Valid {
			return w
		}
	}
	return -1
}

// maxRRPV is the distant re-reference prediction value of the 2-bit RRIP
// policies: SRRIP, DRRIP, PACMan, SHiP++ and CARE.
const maxRRPV = 3

// newRRPV allocates a sets x ways matrix of RRPVs, all 0.
func newRRPV(sets, ways int) [][]uint8 {
	r := make([][]uint8, sets)
	for s := range r {
		r[s] = make([]uint8, ways)
	}
	return r
}

// rripVictim returns the first invalid way or, when the set is full, the
// first way at maxRRPV, aging every way of the set's RRPVs until one
// reaches it.
func rripVictim(blocks []cache.Block, rrpv []uint8) int {
	if w := invalidWay(blocks); w >= 0 {
		return w
	}
	for {
		for w := range rrpv {
			if rrpv[w] >= maxRRPV {
				return w
			}
		}
		for w := range rrpv {
			// The scan found no way at maxRRPV, so none passes it here.
			rrpv[w]++
		}
	}
}

// Signature folds a PC, a prefetch flag, and a core id into the hashed PC
// signature used by the prediction-based policies. Folding the prefetch bit
// lets a policy learn demand and prefetch behaviour of the same load
// independently (paper §IV-A); folding the core id disambiguates cores in a
// shared LLC.
func Signature(pc mem.PC, isPrefetch bool, core mem.CoreID, bits uint) uint64 {
	x := pc.Uint64()*2 + 1
	if isPrefetch {
		x ^= 0xABCD_EF01_2345_6789
	}
	x ^= core.Uint64() << 56
	return mem.FoldHash(x, bits)
}

// Sampler deterministically designates a fixed number of sampled sets and
// maps each to a dense sample index. With fewer total sets than the target,
// every set is sampled.
type Sampler struct {
	count int // number of sampled sets
	// table caches Index per set (shared read-only across copies), replacing
	// the per-access Mix64 divide with one load on the hot path.
	table []int32
}

// NewSampler builds a sampler selecting want > 0 sets out of sets. Exactly
// one set per group of sets/want is sampled, at a mixed (pseudo-random but
// deterministic) offset, so samples spread across the index space.
func NewSampler(sets, want int) Sampler {
	groupSize, count := 1, sets
	if sets > want {
		groupSize, count = sets/want, want
	}
	s := Sampler{count: count, table: make([]int32, sets)}
	for i := range s.table {
		s.table[i] = -1
		group := i / groupSize
		offset := int(mem.Mix64(uint64(group)*0x9e3779b9+12345) % uint64(groupSize))
		if group < count && i%groupSize == offset {
			s.table[i] = int32(group)
		}
	}
	return s
}

// Count returns the number of sampled sets.
func (s Sampler) Count() int { return s.count }

// Index returns the dense sample index of the set, or -1 if not sampled.
// The set must lie within the geometry the sampler was built for.
//
//chromevet:hot
func (s Sampler) Index(set mem.SetIdx) int {
	return int(s.table[set.Int()])
}

// ---------------------------------------------------------------------------
// LRU

// NewLRU builds the LRU baseline policy, cache.LRU: a cache takes its
// victim from the tag pass and calls none of its hooks.
func NewLRU() *cache.LRU { return &cache.LRU{} }

// ---------------------------------------------------------------------------
// SRRIP

// SRRIP implements static re-reference interval prediction (Jaleel et al.,
// ISCA 2010) with maxRRPV=3: insert at 2, promote to 0 on hit, evict the
// first way at 3 (aging all ways until one reaches 3).
type SRRIP struct {
	rrpv [][]uint8
}

// NewSRRIP builds an SRRIP policy for the given geometry.
func NewSRRIP(sets, ways int) *SRRIP {
	return &SRRIP{rrpv: newRRPV(sets, ways)}
}

// Name implements cache.Policy.
func (*SRRIP) Name() string { return "SRRIP" }

// Victim implements cache.Policy.
func (p *SRRIP) Victim(set mem.SetIdx, blocks []cache.Block, _ mem.Access) (int, bool) {
	return rripVictim(blocks, p.rrpv[set]), false
}

// OnHit implements cache.Policy.
func (p *SRRIP) OnHit(set mem.SetIdx, way int, _ []cache.Block, _ mem.Access) {
	p.rrpv[set][way] = 0
}

// OnFill implements cache.Policy.
func (p *SRRIP) OnFill(set mem.SetIdx, way int, _ []cache.Block, _ mem.Access) {
	p.rrpv[set][way] = maxRRPV - 1
}

// OnEvict implements cache.Policy.
func (*SRRIP) OnEvict(mem.SetIdx, int, []cache.Block) {}
