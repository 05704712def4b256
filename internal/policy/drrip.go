package policy

import (
	"chrome/internal/cache"
	"chrome/internal/mem"
)

// DRRIP implements Dynamic RRIP (Jaleel et al., ISCA 2010): set dueling
// between SRRIP insertion (RRPV max-1) and Bimodal RRIP insertion (BRRIP:
// RRPV max most of the time, max-1 with low probability), picking whichever
// misses less in its leader sets. Included as additional baseline
// infrastructure alongside SRRIP and PACMan.
type DRRIP struct {
	rrpv [][]uint8

	leaderS []bool
	leaderB []bool
	// psel ranges over [0, pselMax] = [0, 1024].
	psel    int
	pselMax int

	// brripCtr implements BRRIP's 1-in-32 near insertion deterministically.
	brripCtr uint32
}

// NewDRRIP builds a DRRIP policy for the given LLC geometry.
func NewDRRIP(sets, ways int) *DRRIP {
	d := &DRRIP{
		rrpv:    newRRPV(sets, ways),
		leaderS: make([]bool, sets),
		leaderB: make([]bool, sets),
		pselMax: 1 << 10,
		psel:    1 << 9,
	}
	leaders := 32
	if sets < 64 {
		leaders = sets / 2
	}
	for i := 0; i < leaders; i++ {
		sIdx := int(mem.Mix64(uint64(i)*7+3) % uint64(sets))
		bIdx := int(mem.Mix64(uint64(i)*7+4) % uint64(sets))
		d.leaderS[sIdx] = true
		if !d.leaderS[bIdx] {
			d.leaderB[bIdx] = true
		}
	}
	return d
}

// Name implements cache.Policy.
func (*DRRIP) Name() string { return "DRRIP" }

// useBRRIP reports whether the set inserts bimodally.
func (d *DRRIP) useBRRIP(set mem.SetIdx) bool {
	switch {
	case d.leaderS[set]:
		return false
	case d.leaderB[set]:
		return true
	default:
		return d.psel < d.pselMax/2
	}
}

// Victim implements cache.Policy.
func (d *DRRIP) Victim(set mem.SetIdx, blocks []cache.Block, acc mem.Access) (int, bool) {
	if acc.Type.IsDemand() {
		if d.leaderS[set] && d.psel < d.pselMax {
			d.psel++
		} else if d.leaderB[set] && d.psel > 0 {
			d.psel--
		}
	}
	return rripVictim(blocks, d.rrpv[set]), false
}

// OnHit implements cache.Policy.
func (d *DRRIP) OnHit(set mem.SetIdx, way int, _ []cache.Block, _ mem.Access) {
	d.rrpv[set][way] = 0
}

// OnFill implements cache.Policy.
func (d *DRRIP) OnFill(set mem.SetIdx, way int, _ []cache.Block, _ mem.Access) {
	if d.useBRRIP(set) {
		d.brripCtr++
		if d.brripCtr%32 == 0 {
			d.rrpv[set][way] = maxRRPV - 1
		} else {
			d.rrpv[set][way] = maxRRPV
		}
		return
	}
	d.rrpv[set][way] = maxRRPV - 1
}

// OnEvict implements cache.Policy: the OnFill that follows on the same way
// sets its RRPV.
func (*DRRIP) OnEvict(mem.SetIdx, int, []cache.Block) {}
