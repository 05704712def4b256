package chrome

import (
	"testing"

	"chrome/internal/cache"
	"chrome/internal/mem"
)

// TestAccuracyRewardChain exercises Algorithm 1 lines 3-8 through the real
// cache: an action on a sampled set followed by a re-reference must assign
// the matching accuracy reward.
func TestAccuracyRewardChain(t *testing.T) {
	cfg := testConfig()
	ag, c := newTestAgent(t, cfg, 4, 2)

	// Miss on block A: the agent records an EQ entry (EPV0 insert under the
	// untrained tie-break).
	a := mem.Addr(0x40)
	c.Access(mem.Access{PC: 0x10, Addr: a, Type: mem.Load, Cycle: 1})
	if got := ag.Stats().RewardsAC + ag.Stats().RewardsIN; got != 0 {
		t.Fatalf("no reward should be assigned before a re-reference, got %d", got)
	}

	// Re-reference A: it hits (the block was inserted), so the recorded
	// miss-action earns R_AC^D.
	c.Access(mem.Access{PC: 0x10, Addr: a, Type: mem.Load, Cycle: 2})
	if ag.Stats().RewardsAC != 1 {
		t.Fatalf("accuracy reward not assigned: %+v", ag.Stats())
	}

	// A prefetch re-reference to the same (still unrewarded entries exist:
	// the hit above recorded a new hit-entry) earns the prefetch-magnitude
	// reward.
	c.Access(mem.Access{PC: 0x10, Addr: a, Type: mem.Prefetch, Cycle: 3})
	if ag.Stats().RewardsAC != 2 {
		t.Fatalf("prefetch accuracy reward not assigned: %+v", ag.Stats())
	}
}

// TestInaccuracyRewardOnBypassedReuse: bypass a block, then re-request it;
// the miss must assign R_IN to the bypass entry.
func TestInaccuracyRewardOnBypassedReuse(t *testing.T) {
	cfg := testConfig()
	ag, c := newTestAgent(t, cfg, 4, 2)
	// Train the agent's Q so that bypass wins for this state... instead,
	// drive the ε-exploration path deterministically by forcing epsilon=1
	// briefly is nondeterministic; simpler: access a stream until the agent
	// bypasses, then force a re-reference to the last bypassed block.
	var bypassed mem.Addr
	for i := 0; i < 200000 && bypassed == 0; i++ {
		addr := mem.Addr((i + 1) * 64)
		before := ag.Stats().Bypasses
		c.Access(mem.Access{PC: 0x20, Addr: addr, Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
		if ag.Stats().Bypasses > before {
			bypassed = addr
		}
	}
	if bypassed == 0 {
		t.Skip("agent never bypassed on this stream (tie-break keeps inserting)")
	}
	before := ag.Stats().RewardsIN
	c.Access(mem.Access{PC: 0x20, Addr: bypassed, Type: mem.Load, Cycle: 1 << 40})
	if ag.Stats().RewardsIN != before+1 {
		t.Fatalf("bypassed re-reference did not assign R_IN (before=%d after=%d)",
			before, ag.Stats().RewardsIN)
	}
}

// TestEPVPersistsAcrossAccesses: a block promoted to EPV2 must be the next
// victim in its set.
func TestEPVPersistsAcrossAccesses(t *testing.T) {
	cfg := testConfig()
	ag, c := newTestAgent(t, cfg, 1, 2)
	// Fill both ways.
	c.Access(mem.Access{PC: 1, Addr: 0x00, Type: mem.Load, Cycle: 1})
	c.Access(mem.Access{PC: 1, Addr: 0x40, Type: mem.Load, Cycle: 2})
	// Force way of block 0x00 to EPV2 directly (simulating a learned
	// promote-to-evict decision).
	ag.epv[0][0] = 2
	ag.epv[0][1] = 0
	bypasses := c.Stats().Bypasses
	res := c.Access(mem.Access{PC: 1, Addr: 0x80, Type: mem.Load, Cycle: 3})
	if c.Stats().Bypasses != bypasses {
		t.Skip("agent chose bypass; EPV eviction not exercised")
	}
	if !res.EvictedValid || res.Evicted.Addr != 0x00 {
		t.Fatalf("evicted %+v, want the EPV2 block 0x00", res.Evicted)
	}
}

// TestNChromeIgnoresObstruction end-to-end: identical runs except for the
// obstruction signal must produce identical results under N-CHROME.
func TestNChromeIgnoresObstruction(t *testing.T) {
	run := func(obstructed bool) AgentStats {
		cfg := NCHROMEConfig()
		cfg.SampledSets = 1 << 16
		cfg.Alpha = 0.2
		a := New(cfg, 8, 2)
		a.Obstructed = func(mem.CoreID) bool { return obstructed }
		c := cache.New(cache.Config{Name: "LLC", Sets: 8, Ways: 2}, a)
		for i := 0; i < 30000; i++ {
			c.Access(mem.Access{PC: mem.PCOf(uint64(i % 3)), Addr: mem.Addr(i * 64), Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
		}
		return a.Stats()
	}
	if run(false) != run(true) {
		t.Fatal("N-CHROME behaviour changed with the obstruction signal")
	}
}

// TestChromeRespondsToObstruction: CHROME's NR rewards are larger in
// magnitude for LLC-obstructed cores (±28/22 vs ±10), so the learned
// Q-values must differ between obstructed and non-obstructed runs even
// when the argmax decisions coincide.
func TestChromeRespondsToObstruction(t *testing.T) {
	run := func(obstructed bool) *Agent {
		cfg := testConfig()
		cfg.Epsilon = 0.001
		a := New(cfg, 8, 2)
		a.Obstructed = func(mem.CoreID) bool { return obstructed }
		c := cache.New(cache.Config{Name: "LLC", Sets: 8, Ways: 2}, a)
		for i := 0; i < 30000; i++ {
			c.Access(mem.Access{PC: mem.PCOf(uint64(i % 3)), Addr: mem.Addr(i * 64), Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
		}
		return a
	}
	nob, ob := run(false), run(true)
	// Probe the stream's miss state for each PC: the bypass action's
	// converged Q tracks R_AC-NR, which differs across the two runs.
	differs := false
	for pc := mem.PC(0); pc < 3; pc++ {
		acc := mem.Access{PC: pc, Addr: 0x1000, Type: mem.Load}
		st := NewState(mem.Mix64(pcBase(acc, false)), acc.Addr.PageNumber())
		if nob.QTable().Q(st, ActionBypass) != ob.QTable().Q(st, ActionBypass) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("Q-values identical with and without obstruction; concurrency feedback is dead")
	}
}
