package chrome

import (
	"math/rand/v2"
	"testing"

	"chrome/internal/cache"
	"chrome/internal/mem"
)

// testConfig returns a small, fast-learning configuration: every set
// sampled, higher alpha, no exploration noise unless asked.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SampledSets = 1 << 16 // sample everything
	cfg.Alpha = 0.2
	cfg.Epsilon = 0
	return cfg
}

func newTestAgent(t testing.TB, cfg Config, sets, ways int) (*Agent, *cache.Cache) {
	t.Helper()
	a := New(cfg, sets, ways)
	c := cache.New(cache.Config{Name: "LLC", Sets: sets, Ways: ways}, a)
	return a, c
}

func TestAgentNames(t *testing.T) {
	a := New(DefaultConfig(), 64, 4)
	if a.Name() != "CHROME" {
		t.Fatalf("name = %q", a.Name())
	}
	n := New(NCHROMEConfig(), 64, 4)
	if n.Name() != "N-CHROME" {
		t.Fatalf("name = %q", n.Name())
	}
}

func TestAgentLearnsToBypassStream(t *testing.T) {
	cfg := testConfig()
	cfg.Epsilon = 0.001 // paper value; exploration breaks the initial tie
	ag, c := newTestAgent(t, cfg, 16, 2)
	// Pure stream: no block is ever re-referenced. The agent should learn
	// that bypassing earns R_AC-NR and converge to bypassing. Judge by the
	// final window only (the start of the run is the learning curve).
	var before AgentStats
	for i := 0; i < 60000; i++ {
		c.Access(mem.Access{PC: 0x10, Addr: mem.Addr(i * 64), Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
		if i == 40000 {
			before = ag.Stats()
		}
	}
	st := ag.Stats()
	frac := float64(st.Bypasses-before.Bypasses) / float64(st.Decisions-before.Decisions)
	if frac < 0.8 {
		t.Fatalf("tail bypass fraction %.2f, want >= 0.8 on a pure stream", frac)
	}
	if ag.QTable().Updates() == 0 {
		t.Fatal("no SARSA updates")
	}
}

func TestAgentLearnsToCacheHotSet(t *testing.T) {
	ag, c := newTestAgent(t, testConfig(), 16, 4)
	// Hot set with short reuse distance mixed with a stream.
	for i := 0; i < 60000; i++ {
		hot := mem.Addr((i % 32) * 64)
		c.Access(mem.Access{PC: 0x20, Addr: hot, Type: mem.Load, Cycle: mem.CycleOf(uint64(2 * i))})
		c.Access(mem.Access{PC: 0x30, Addr: mem.Addr(1<<20 + i*64), Type: mem.Load, Cycle: mem.CycleOf(uint64(2*i + 1))})
	}
	st := c.Stats()
	// The hot accesses must mostly hit (the agent retains them).
	hitRatio := float64(st.DemandHits()) / float64(st.DemandAccesses())
	if hitRatio < 0.4 {
		t.Fatalf("demand hit ratio %.2f, want >= 0.4 (hot half should hit)", hitRatio)
	}
	if ag.stats.RewardsAC == 0 {
		t.Fatal("no accuracy rewards were assigned")
	}
}

func TestAgentActionsAreLegal(t *testing.T) {
	cfg := testConfig()
	cfg.Epsilon = 0.5 // heavy exploration
	ag, c := newTestAgent(t, cfg, 8, 2)
	for i := 0; i < 20000; i++ {
		addr := mem.Addr(mem.Mix64(uint64(i)) % (1 << 20) &^ 63)
		typ := mem.Load
		if i%3 == 0 {
			typ = mem.Prefetch
		}
		c.Access(mem.Access{PC: mem.PCOf(uint64(i % 5)), Addr: addr, Type: typ, Core: mem.CoreIDOf(i % 2), Cycle: mem.CycleOf(uint64(i))})
		// The cache panics on an invalid victim way; every EPV in the
		// accessed set must also stay within [0, EPV_H]. A line with a
		// larger EPV is the set's next victim, so a check of every set
		// after the run alone would rarely see one.
		if err := ag.CheckSetInvariants(c.SetIndex(addr)); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
}

func TestNRRewardDirections(t *testing.T) {
	cfg := testConfig()
	a := New(cfg, 16, 2)
	entry := func(act Action, hit bool) EQEntry {
		return EQEntry{Action: act, TriggerHit: hit}
	}
	if got := a.nrReward(entry(ActionBypass, false)); got != rewardACNRNob {
		t.Fatalf("bypass-no-reuse reward = %d, want %d", got, rewardACNRNob)
	}
	if got := a.nrReward(entry(ActionEPV0, false)); got != rewardINNRNob {
		t.Fatalf("insert-no-reuse reward = %d, want %d", got, rewardINNRNob)
	}
	if got := a.nrReward(entry(ActionEPV2, true)); got != rewardACNRNob {
		t.Fatalf("hit-EPVH-no-reuse reward = %d, want %d", got, rewardACNRNob)
	}
	if got := a.nrReward(entry(ActionEPV0, true)); got != rewardINNRNob {
		t.Fatalf("hit-EPV0-no-reuse reward = %d, want %d", got, rewardINNRNob)
	}
}

func TestNRRewardObstruction(t *testing.T) {
	cfg := testConfig()
	a := New(cfg, 16, 2)
	a.Obstructed = func(mem.CoreID) bool { return true }
	if got := a.nrReward(EQEntry{Action: ActionBypass}); got != rewardACNROb {
		t.Fatalf("obstructed accurate NR reward = %d, want %d", got, rewardACNROb)
	}
	if got := a.nrReward(EQEntry{Action: ActionEPV1}); got != rewardINNROb {
		t.Fatalf("obstructed inaccurate NR reward = %d, want %d", got, rewardINNROb)
	}
	// N-CHROME ignores obstruction entirely.
	n := New(NCHROMEConfig(), 16, 2)
	n.Obstructed = func(mem.CoreID) bool { return true }
	if got := n.nrReward(EQEntry{Action: ActionBypass}); got != rewardACNRNob {
		t.Fatalf("N-CHROME must use the non-obstructed reward, got %d", got)
	}
}

func TestStateDistinguishesContext(t *testing.T) {
	a := New(DefaultConfig(), 64, 4)
	acc := mem.Access{PC: 0x400, Addr: 0x12345000, Type: mem.Load, Core: 0}
	base := a.state(acc, false)
	if a.state(acc, true).Feature(0) == base.Feature(0) {
		t.Error("hit/miss bit not folded into the PC signature")
	}
	pfAcc := acc
	pfAcc.Type = mem.Prefetch
	if a.state(pfAcc, false).Feature(0) == base.Feature(0) {
		t.Error("is_prefetch bit not folded into the PC signature")
	}
	core1 := acc
	core1.Core = 1
	if a.state(core1, false).Feature(0) == base.Feature(0) {
		t.Error("core id not folded into the PC signature")
	}
	if base.Feature(1) != acc.Addr.PageNumber() {
		t.Error("PN feature must be the page number")
	}
	if base.Len() != 2 {
		t.Errorf("default state dimensionality = %d, want 2", base.Len())
	}
}

func TestExplorationRate(t *testing.T) {
	cfg := testConfig()
	cfg.Epsilon = 0.5
	ag, c := newTestAgent(t, cfg, 8, 2)
	for i := 0; i < 10000; i++ {
		c.Access(mem.Access{PC: 1, Addr: mem.Addr(i * 64), Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
	}
	st := ag.Stats()
	frac := float64(st.Explorations) / float64(st.Decisions)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("exploration fraction %.2f, want about 0.5", frac)
	}
}

func TestAgentDeterminism(t *testing.T) {
	run := func() AgentStats {
		cfg := testConfig()
		cfg.Epsilon = 0.1
		ag, c := newTestAgent(t, cfg, 16, 2)
		for i := 0; i < 20000; i++ {
			addr := mem.Addr(mem.Mix64(uint64(i)) % (1 << 22) &^ 63)
			c.Access(mem.Access{PC: mem.PCOf(uint64(i % 7)), Addr: addr, Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
		}
		return ag.Stats()
	}
	if run() != run() {
		t.Fatal("identical runs diverged; agent must be deterministic")
	}
}

func TestVictimPrefersHighestEPV(t *testing.T) {
	cfg := testConfig()
	a := New(cfg, 1, 3)
	blocks := []cache.Block{
		{Valid: true, LastTouch: 10},
		{Valid: true, LastTouch: 5},
		{Valid: true, LastTouch: 1},
	}
	a.epv[0] = []uint8{0, 2, 1}
	if w := a.victimByEPV(0, blocks); w != 1 {
		t.Fatalf("victim = %d, want way 1 (EPV 2)", w)
	}
	// Tie on EPV: least recently touched wins.
	a.epv[0] = []uint8{1, 1, 1}
	if w := a.victimByEPV(0, blocks); w != 2 {
		t.Fatalf("victim = %d, want way 2 (LRU among ties)", w)
	}
	// An invalid way wins over any EPV, the first one in way order.
	a.epv[0] = []uint8{2, 0, 0}
	blocks[1].Valid, blocks[2].Valid = false, false
	if w := a.victimByEPV(0, blocks); w != 1 {
		t.Fatalf("victim = %d, want way 1 (first invalid way)", w)
	}
}

// scanVictimByEPV is the reference for victimByEPV: the early-exit scan it
// replaced, which returns the first invalid way, else the highest EPV, the
// oldest LastTouch among those, the first way among those.
func scanVictimByEPV(epv []uint8, blocks []cache.Block) int {
	best, bestEPV, bestTouch := 0, int(-1), ^mem.Cycle(0)
	for w := range epv {
		if !blocks[w].Valid {
			return w
		}
		e := int(epv[w])
		if e > bestEPV || (e == bestEPV && blocks[w].LastTouch < bestTouch) {
			best, bestEPV, bestTouch = w, e, blocks[w].LastTouch
		}
	}
	return best
}

// TestVictimByEPVMatchesScan holds the branch-free victimByEPV to the
// early-exit scan on named edge cases and on random sets: empty, full and
// mixed, 1 to cache.MaxWays ways, all four EPVs, and LastTouch from a
// narrow range (ties and 0) or up to the largest the packed keys allow
// (LastTouch+1 < 2^54).
func TestVictimByEPVMatchesScan(t *testing.T) {
	type way struct {
		valid bool
		epv   uint8
		touch uint64
	}
	cases := []struct {
		name string
		ways []way
	}{
		{"empty", make([]way, 12)},
		{"full-epv-order", []way{{true, 1, 1}, {true, 3, 9}, {true, 2, 0}, {true, 3, 9}}},
		{"full-epv-tie-oldest", []way{{true, 2, 8}, {true, 2, 3}, {true, 2, 3}, {true, 1, 0}}},
		{"full-touch-zero", []way{{true, 0, 0}, {true, 0, 0}, {true, 0, 5}}},
		{"epv3-touch-zero-before-invalid", []way{{true, 3, 0}, {true, 3, 0}, {}, {}}},
		{"invalid-after-evictable", []way{{true, 3, 1}, {}, {true, 2, 0}}},
		{"max-touch", []way{{true, 0, 1<<54 - 2}, {true, 0, 1<<54 - 3}, {true, 0, 1<<54 - 2}}},
		{"widest-set", append(make([]way, cache.MaxWays-1), way{true, 3, 1<<54 - 2})},
	}
	check := func(t *testing.T, epv []uint8, blocks []cache.Block) {
		t.Helper()
		a := &Agent{epv: [][]uint8{epv}}
		if got, want := a.victimByEPV(0, blocks), scanVictimByEPV(epv, blocks); got != want {
			t.Fatalf("victimByEPV = %d, scan = %d on EPVs %v, blocks %+v", got, want, epv, blocks)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			epv := make([]uint8, len(tc.ways))
			blocks := make([]cache.Block, len(tc.ways))
			for w, x := range tc.ways {
				epv[w] = x.epv
				blocks[w] = cache.Block{Valid: x.valid, LastTouch: mem.CycleOf(x.touch)}
			}
			check(t, epv, blocks)
		})
	}
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewPCG(3, 4))
		for i := 0; i < 20000; i++ {
			n := 1 + r.IntN(cache.MaxWays)
			epv, blocks := make([]uint8, n), make([]cache.Block, n)
			pValid := []float64{0, 1, 0.8, 0.5}[r.IntN(4)]
			for w := range blocks {
				epv[w] = uint8(r.IntN(4))
				if r.Float64() < pValid {
					touch := r.Uint64N(4)
					if r.IntN(2) == 0 {
						touch = r.Uint64N(1<<54 - 1)
					}
					blocks[w] = cache.Block{Valid: true, LastTouch: mem.CycleOf(touch)}
				}
			}
			check(t, epv, blocks)
		}
	})
}

func TestUPKSA(t *testing.T) {
	cfg := testConfig()
	ag, c := newTestAgent(t, cfg, 16, 2)
	for i := 0; i < 30000; i++ {
		c.Access(mem.Access{PC: 1, Addr: mem.Addr(i * 64), Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
	}
	upksa := ag.UPKSA()
	if upksa <= 0 || upksa > 1000 {
		t.Fatalf("UPKSA = %v, want in (0, 1000]", upksa)
	}
	fresh := New(cfg, 16, 2)
	if fresh.UPKSA() != 0 {
		t.Fatal("fresh agent UPKSA should be 0")
	}
}

// TestActionSpaceFullyExercised: with heavy exploration on a rich access
// mix, every legal action must appear in both trigger histograms.
func TestActionSpaceFullyExercised(t *testing.T) {
	cfg := testConfig()
	cfg.Epsilon = 0.3
	ag, c := newTestAgent(t, cfg, 16, 4)
	for i := 0; i < 60000; i++ {
		// Mix short-reuse and streaming traffic with some prefetches.
		addr := mem.Addr((i % 96) * 64)
		if i%3 == 0 {
			addr = mem.Addr(1<<22 + i*64)
		}
		typ := mem.Load
		if i%5 == 0 {
			typ = mem.Prefetch
		}
		c.Access(mem.Access{PC: mem.PCOf(uint64(i % 6)), Addr: addr, Type: typ, Cycle: mem.CycleOf(uint64(i))})
	}
	st := ag.Stats()
	for a := 0; a < NumActions; a++ {
		if st.MissActions[0][a] == 0 {
			t.Errorf("demand miss action %v never chosen", Action(a))
		}
	}
	for a := int(ActionEPV0); a < NumActions; a++ {
		if st.HitActions[0][a] == 0 {
			t.Errorf("demand hit action %v never chosen", Action(a))
		}
	}
	// Bypass must never appear as a hit action.
	if st.HitActions[0][ActionBypass] != 0 || st.HitActions[1][ActionBypass] != 0 {
		t.Fatal("bypass recorded as a hit action")
	}
}
