package policy

import (
	"chrome/internal/cache"
	"chrome/internal/mem"
)

// PACMan implements PACMan-HM (Wu et al., MICRO 2011; paper §VIII):
// prefetch-aware cache management on an SRRIP substrate. Demand and
// prefetch requests use different insertion and hit-promotion treatment —
// prefetch fills insert at distant RRPV and prefetch hits do not promote —
// and set dueling picks between treating prefetch hits as no-ops (PACMan-H)
// and additionally demoting prefetch insertions (PACMan-M).
type PACMan struct {
	rrpv [][]uint8

	// Set dueling: a few leader sets run each variant; follower sets use
	// the winner according to a saturating miss counter (psel).
	leaderH []bool
	leaderM []bool
	// psel ranges over [0, pselMax] = [0, 1024].
	psel    int
	pselMax int
}

// NewPACMan builds a PACMan policy for the given LLC geometry.
func NewPACMan(sets, ways int) *PACMan {
	p := &PACMan{
		rrpv:    newRRPV(sets, ways),
		leaderH: make([]bool, sets),
		leaderM: make([]bool, sets),
		pselMax: 1 << 10,
		psel:    1 << 9,
	}
	// 32 leader sets per variant, spread deterministically.
	leaders := 32
	if sets < 64 {
		leaders = sets / 2
	}
	for i := 0; i < leaders; i++ {
		h := int(mem.Mix64(uint64(i)*2+1) & uint64(sets-1))
		m := int(mem.Mix64(uint64(i)*2+2) & uint64(sets-1))
		p.leaderH[h] = true
		p.leaderM[m] = !p.leaderH[m]
	}
	return p
}

// Name implements cache.Policy.
func (*PACMan) Name() string { return "PACMan" }

// useM reports whether the set applies the PACMan-M (demote prefetch
// insertions further) variant.
func (p *PACMan) useM(set mem.SetIdx) bool {
	switch {
	case p.leaderH[set]:
		return false
	case p.leaderM[set]:
		return true
	default:
		return p.psel < p.pselMax/2
	}
}

// Victim implements cache.Policy (SRRIP scan with aging).
func (p *PACMan) Victim(set mem.SetIdx, blocks []cache.Block, acc mem.Access) (int, bool) {
	// Set dueling bookkeeping: misses in leader sets move psel.
	if acc.Type.IsDemand() {
		if p.leaderH[set] && p.psel < p.pselMax {
			p.psel++
		} else if p.leaderM[set] && p.psel > 0 {
			p.psel--
		}
	}
	return rripVictim(blocks, p.rrpv[set]), false
}

// OnHit implements cache.Policy: demand hits promote to MRU; prefetch hits
// do not promote at all (the PACMan-H insight: a prefetch hit says nothing
// about demand reuse).
func (p *PACMan) OnHit(set mem.SetIdx, way int, _ []cache.Block, acc mem.Access) {
	if acc.IsPrefetch() {
		return
	}
	p.rrpv[set][way] = 0
}

// OnFill implements cache.Policy: demand fills insert at RRPV max-1
// (SRRIP); prefetch fills insert at the distant RRPV, and under PACMan-M
// they insert at max (immediately evictable).
func (p *PACMan) OnFill(set mem.SetIdx, way int, _ []cache.Block, acc mem.Access) {
	if acc.IsPrefetch() {
		if p.useM(set) {
			p.rrpv[set][way] = maxRRPV
		} else {
			p.rrpv[set][way] = maxRRPV - 1
		}
		return
	}
	p.rrpv[set][way] = maxRRPV - 1
}

// OnEvict implements cache.Policy: the OnFill that follows on the same way
// sets its RRPV.
func (*PACMan) OnEvict(mem.SetIdx, int, []cache.Block) {}
