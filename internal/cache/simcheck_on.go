//go:build simcheck

package cache

import (
	"fmt"

	"chrome/internal/mem"
)

// SimcheckEnabled reports whether the simulation sanitizer is compiled in.
const SimcheckEnabled = true

// checkSet validates one set's invariants after a state transition: no two
// valid ways may hold the same tag, every invalid way must hold invalidTag
// (the tag pass compares tags alone), and a policy implementing
// InvariantChecker must report its per-set metadata consistent. Violations
// panic with enough context to localize the corrupting transition. Without
// -tags simcheck this compiles to an empty function (see simcheck_off.go).
func (c *Cache) checkSet(idx mem.SetIdx) {
	set := c.set(idx)
	for i := range set {
		if !set[i].Valid {
			if set[i].Tag != invalidTag {
				panic(fmt.Sprintf("simcheck: cache %s set %d: invalid way %d holds tag %#x, not the invalid tag",
					c.cfg.Name, idx, i, set[i].Tag))
			}
			continue
		}
		for j := i + 1; j < len(set); j++ {
			if set[j].Valid && set[j].Tag == set[i].Tag {
				panic(fmt.Sprintf("simcheck: cache %s set %d: duplicate valid tag %#x in ways %d and %d",
					c.cfg.Name, idx, set[i].Tag, i, j))
			}
		}
	}
	if ic, ok := c.policy.(InvariantChecker); ok {
		if err := ic.CheckSetInvariants(idx); err != nil {
			panic(fmt.Sprintf("simcheck: cache %s set %d: policy %s invariant violated: %v",
				c.cfg.Name, idx, c.policy.Name(), err))
		}
	}
}
