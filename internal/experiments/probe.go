package experiments

import (
	"chrome/internal/cache"
	"chrome/internal/mem"
	"chrome/internal/sim"
	"chrome/internal/trace"
)

// trackerLimit bounds the block addresses a reuseTracker keeps pending.
// Records past it are counted but not tracked, so they land in the
// never-re-requested bucket, the conservative direction for the claims of
// both Fig. 2 and Fig. 9.
const trackerLimit = 1 << 20

// reuseTracker records block addresses (unused evictions for Fig. 2,
// bypassed blocks for Fig. 9) and counts how many are requested again. The
// zero value is ready to use.
type reuseTracker struct {
	pending map[mem.Addr]struct{}
	// reRequested counts tracked records whose block was requested again;
	// total counts every record.
	reRequested, total uint64
}

// record notes an event (an unused eviction or a bypass) for addr's block.
func (t *reuseTracker) record(addr mem.Addr) {
	t.total++
	if t.pending == nil {
		t.pending = make(map[mem.Addr]struct{})
	}
	if len(t.pending) < trackerLimit {
		t.pending[addr.BlockAligned()] = struct{}{}
	}
}

// observe notes a request for addr: a pending record of its block is
// reclassified as re-requested, once.
func (t *reuseTracker) observe(addr mem.Addr) {
	key := addr.BlockAligned()
	if _, ok := t.pending[key]; ok {
		delete(t.pending, key)
		t.reRequested++
	}
}

// reRequestedRatio returns reRequested/total (0 when empty).
func (t *reuseTracker) reRequestedRatio() float64 {
	if t.total == 0 {
		return 0
	}
	return float64(t.reRequested) / float64(t.total)
}

// reuseProbe wraps an LLC policy and watches its decisions from outside
// the cache: which blocks it evicts unused (Fig. 2) and which it bypasses
// (Fig. 9), and whether each is requested again. The cache calls Victim or
// OnHit for every LLC request but a writeback, and OnEvict only for a
// valid victim, before overwriting it, so the probe sees exactly the
// events the cache counts as EvictionsUnused and Bypasses, warmup
// included.
type reuseProbe struct {
	cache.Policy
	// evicted counts any later request of an unused victim; bypassed
	// counts only a later demand request of a bypassed block.
	evicted, bypassed reuseTracker
}

// observe notes one LLC request against both trackers.
func (p *reuseProbe) observe(acc mem.Access) {
	p.evicted.observe(acc.Addr)
	if acc.Type.IsDemand() {
		p.bypassed.observe(acc.Addr)
	}
}

// Victim implements cache.Policy, recording a bypass.
func (p *reuseProbe) Victim(set mem.SetIdx, blocks []cache.Block, acc mem.Access) (int, bool) {
	p.observe(acc)
	way, bypass := p.Policy.Victim(set, blocks, acc)
	if bypass {
		p.bypassed.record(acc.Addr)
	}
	return way, bypass
}

// OnHit implements cache.Policy.
func (p *reuseProbe) OnHit(set mem.SetIdx, way int, blocks []cache.Block, acc mem.Access) {
	p.observe(acc)
	p.Policy.OnHit(set, way, blocks, acc)
}

// OnEvict implements cache.Policy, recording a victim that no demand hit
// since its fill.
func (p *reuseProbe) OnEvict(set mem.SetIdx, way int, blocks []cache.Block) {
	if b := &blocks[way]; !b.Used {
		p.evicted.record(b.Tag.Addr())
	}
	p.Policy.OnEvict(set, way, blocks)
}

// runMixProbed is runMix with the scheme's LLC policy wrapped in a
// reuseProbe, which it returns with the result.
func runMixProbed(gens []trace.Generator, cores int, scheme Scheme, pf PrefetchConfig, sc Scale) (sim.Result, *reuseProbe) {
	var probe *reuseProbe
	inner := scheme.Factory
	scheme.Factory = func(sets, ways, cores int, obstructed func(mem.CoreID) bool) cache.Policy {
		probe = &reuseProbe{Policy: inner(sets, ways, cores, obstructed)}
		return probe
	}
	res := runMix(gens, cores, scheme, pf, sc)
	return res, probe
}
