package policy

import (
	"chrome/internal/cache"
	"chrome/internal/mem"
)

// CARE implements the mechanism of CARE (Lu, Wang & Sun, HPCA 2023): a
// lightweight signature-based reuse predictor whose cache insertion and
// hit-promotion decisions are additionally modulated by concurrency-aware
// system-level feedback. When the requesting core is currently
// LLC-obstructed (its C-AMAT at the LLC exceeds main-memory latency, so it
// gains little from LLC caching), CARE demotes the priority of that core's
// insertions and promotions, keeping capacity for cores that benefit.
type CARE struct {
	// Obstructed reports whether a core is currently LLC-obstructed; wired
	// to the camat.Monitor by the simulator. Nil means never obstructed.
	Obstructed func(core mem.CoreID) bool

	sampler Sampler
	shct    []uint8 // 3-bit saturating reuse counters per signature
	rrpv    [][]uint8
	// lineSig remembers the fill signature for detraining on unused
	// eviction (only read in sampled sets).
	lineSig   [][]uint64
	lineReref [][]bool
}

const careTableBits = 13

// NewCARE builds a CARE policy for the given LLC geometry.
func NewCARE(sets, ways, sampled int) *CARE {
	c := &CARE{
		sampler:   NewSampler(sets, sampled),
		shct:      make([]uint8, 1<<careTableBits),
		rrpv:      newRRPV(sets, ways),
		lineSig:   make([][]uint64, sets),
		lineReref: make([][]bool, sets),
	}
	for i := range c.shct {
		c.shct[i] = 4
	}
	for s := 0; s < sets; s++ {
		c.lineSig[s] = make([]uint64, ways)
		c.lineReref[s] = make([]bool, ways)
	}
	return c
}

// Name implements cache.Policy.
func (*CARE) Name() string { return "CARE" }

func (c *CARE) sig(acc mem.Access) uint64 {
	return Signature(acc.PC, acc.IsPrefetch(), acc.Core, careTableBits)
}

func (c *CARE) obstructed(core mem.CoreID) bool {
	return c.Obstructed != nil && c.Obstructed(core)
}

// Victim implements cache.Policy (SRRIP-style scan with aging).
func (c *CARE) Victim(set mem.SetIdx, blocks []cache.Block, _ mem.Access) (int, bool) {
	return rripVictim(blocks, c.rrpv[set]), false
}

// OnHit implements cache.Policy: promote, less aggressively for obstructed
// cores; train the signature on the first re-reference in sampled sets.
func (c *CARE) OnHit(set mem.SetIdx, way int, _ []cache.Block, acc mem.Access) {
	if c.sampler.Index(set) >= 0 && !c.lineReref[set][way] {
		c.lineReref[set][way] = true
		s := c.lineSig[set][way]
		if c.shct[s] < 7 {
			c.shct[s]++
		}
	}
	if c.obstructed(acc.Core) {
		c.rrpv[set][way] = 1
	} else {
		c.rrpv[set][way] = 0
	}
}

// OnFill implements cache.Policy: insertion priority from the signature's
// reuse counter, demoted by one level for obstructed cores.
func (c *CARE) OnFill(set mem.SetIdx, way int, _ []cache.Block, acc mem.Access) {
	s := c.sig(acc)
	var r uint8
	if c.shct[s] >= 4 {
		r = maxRRPV - 1
	} else {
		r = maxRRPV
	}
	if c.obstructed(acc.Core) && r < maxRRPV {
		r++
	}
	c.rrpv[set][way] = r
	c.lineSig[set][way] = s
	c.lineReref[set][way] = false
}

// OnEvict implements cache.Policy: detrain signatures whose lines were
// evicted unreferenced (sampled sets only). The OnFill that follows on the
// same way resets the line's metadata.
func (c *CARE) OnEvict(set mem.SetIdx, way int, _ []cache.Block) {
	if c.sampler.Index(set) >= 0 && !c.lineReref[set][way] {
		s := c.lineSig[set][way]
		if c.shct[s] > 0 {
			c.shct[s]--
		}
	}
}
