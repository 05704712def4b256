// Metadata invariants consumed by the simulation sanitizer (build tag
// "simcheck"): cache.Cache calls CheckSetInvariants after every access to a
// set when the tag is on. The methods are unconditionally compiled —
// they are cheap and only invoked from the tagged checker.

package policy

import (
	"fmt"

	"chrome/internal/cache"
	"chrome/internal/mem"
)

var (
	_ cache.InvariantChecker = (*SRRIP)(nil)
	_ cache.InvariantChecker = (*DRRIP)(nil)
)

// CheckSetInvariants implements cache.InvariantChecker: every RRPV stays
// within [0, maxRRPV].
func (p *SRRIP) CheckSetInvariants(set mem.SetIdx) error {
	return checkRRPVBounds(p.rrpv[set])
}

// CheckSetInvariants implements cache.InvariantChecker: RRPVs stay within
// [0, maxRRPV] and the set-dueling counter within [0, pselMax].
func (d *DRRIP) CheckSetInvariants(set mem.SetIdx) error {
	if d.psel < 0 || d.psel > d.pselMax {
		return fmt.Errorf("PSEL %d outside [0, %d]", d.psel, d.pselMax)
	}
	return checkRRPVBounds(d.rrpv[set])
}

func checkRRPVBounds(rrpv []uint8) error {
	for w, v := range rrpv {
		if v > maxRRPV {
			return fmt.Errorf("way %d RRPV %d exceeds max %d", w, v, maxRRPV)
		}
	}
	return nil
}
