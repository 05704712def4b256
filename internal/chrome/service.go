package chrome

// The service lift (DESIGN.md §12): the CHROME agent driven outside the
// simulator. The cache.Policy entry points (Victim/OnHit/OnFill) are
// shaped around the simulator's per-set block arrays; a real object cache
// has neither blocks nor ways, only an admit/priority verdict per request.
// Step runs the same Algorithm-1 step as Victim and OnHit — reward
// matching, ε-greedy action selection, EQ recording, SARSA — and returns
// that verdict, leaving the store bookkeeping (bands, recency lists, byte
// accounting) to the caller. internal/objcache is the first such caller,
// mapping the 2-bit EPV to its per-shard eviction bands.

import "chrome/internal/mem"

// Decision is the agent's verdict for one object-cache request.
type Decision struct {
	// Bypass requests not admitting the object at all (miss triggers
	// only): the agent predicts no re-reference before eviction.
	Bypass bool
	// EPV is the 2-bit eviction priority the object is filed under —
	// band 3 is evicted first, band 0 last (victimByEPV's order).
	EPV uint8
}

// Step drives one request through the Algorithm-1 step and returns its
// verdict. It is Victim (hit=false) and OnHit (hit=true) with the
// simulator's block-array bookkeeping lifted away; the caller applies the
// decision to its own store. The set index folds the address onto the
// agent's set geometry, so sampling density matches the simulator's.
//
//chromevet:hot
func (a *Agent) Step(acc mem.Access, hit bool) Decision {
	act := a.step(acc.Addr.Block().Set(uint64(len(a.epv)-1)), acc, hit)
	if !hit && act == ActionBypass {
		a.stats.Bypasses++
		return Decision{Bypass: true}
	}
	return Decision{EPV: act.EPV() & 3}
}
