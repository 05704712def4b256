package policy

import (
	"chrome/internal/cache"
	"chrome/internal/mem"
)

// SHiPPP implements SHiP++ (Young et al., CRC-2 2017): SHiP's
// signature-based hit prediction refined with first-re-reference-only
// training and prefetch-aware insertion. Included as an extension baseline
// (paper §VIII discusses it as related work).
type SHiPPP struct {
	sampler Sampler
	// shct holds 3-bit saturating signature hit counters.
	shct      []uint8
	rrpv      [][]uint8
	lineSig   [][]uint64
	lineReref [][]bool
}

const shipTableBits = 14

// NewSHiPPP builds a SHiP++ policy for the given LLC geometry.
func NewSHiPPP(sets, ways, sampled int) *SHiPPP {
	p := &SHiPPP{
		sampler:   NewSampler(sets, sampled),
		shct:      make([]uint8, 1<<shipTableBits),
		rrpv:      newRRPV(sets, ways),
		lineSig:   make([][]uint64, sets),
		lineReref: make([][]bool, sets),
	}
	for i := range p.shct {
		p.shct[i] = 2
	}
	for s := 0; s < sets; s++ {
		p.lineSig[s] = make([]uint64, ways)
		p.lineReref[s] = make([]bool, ways)
	}
	return p
}

// Name implements cache.Policy.
func (*SHiPPP) Name() string { return "SHiP++" }

func (p *SHiPPP) sig(acc mem.Access) uint64 {
	return Signature(acc.PC, acc.IsPrefetch(), acc.Core, shipTableBits)
}

// Victim implements cache.Policy.
func (p *SHiPPP) Victim(set mem.SetIdx, blocks []cache.Block, _ mem.Access) (int, bool) {
	return rripVictim(blocks, p.rrpv[set]), false
}

// OnHit implements cache.Policy: SHiP++ trains only on the first
// re-reference and promotes demand hits to MRU.
func (p *SHiPPP) OnHit(set mem.SetIdx, way int, _ []cache.Block, acc mem.Access) {
	if p.sampler.Index(set) >= 0 && !p.lineReref[set][way] {
		p.lineReref[set][way] = true
		s := p.lineSig[set][way]
		if p.shct[s] < 7 {
			p.shct[s]++
		}
	}
	if acc.IsPrefetch() {
		// Prefetch hits do not promote (they carry no demand-reuse signal).
		return
	}
	p.rrpv[set][way] = 0
}

// OnFill implements cache.Policy: prefetch fills insert at distant RRPV
// unless their signature is strongly predicted to be reused.
func (p *SHiPPP) OnFill(set mem.SetIdx, way int, _ []cache.Block, acc mem.Access) {
	s := p.sig(acc)
	var r uint8
	switch {
	case p.shct[s] == 0:
		r = maxRRPV
	case acc.IsPrefetch() && p.shct[s] < 6:
		r = maxRRPV
	case p.shct[s] >= 6:
		r = 0
	default:
		r = maxRRPV - 1
	}
	p.rrpv[set][way] = r
	p.lineSig[set][way] = s
	p.lineReref[set][way] = false
}

// OnEvict implements cache.Policy: detrain the signature of a line evicted
// unreferenced (sampled sets only). The OnFill that follows on the same way
// resets the line's metadata.
func (p *SHiPPP) OnEvict(set mem.SetIdx, way int, _ []cache.Block) {
	if p.sampler.Index(set) >= 0 && !p.lineReref[set][way] {
		s := p.lineSig[set][way]
		if p.shct[s] > 0 {
			p.shct[s]--
		}
	}
}
