package policy

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"chrome/internal/cache"
	"chrome/internal/mem"
)

func TestSamplerCountAndSpread(t *testing.T) {
	s := NewSampler(2048, 64)
	if s.Count() != 64 {
		t.Fatalf("count = %d, want 64", s.Count())
	}
	seen := map[int]bool{}
	for set := 0; set < 2048; set++ {
		if idx := s.Index(mem.SetIdxOf(set)); idx >= 0 {
			if idx >= 64 {
				t.Fatalf("sample index %d out of range", idx)
			}
			if seen[idx] {
				t.Fatalf("sample index %d assigned to two sets", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 64 {
		t.Fatalf("found %d sampled sets, want 64", len(seen))
	}
}

func TestSamplerSmallCache(t *testing.T) {
	s := NewSampler(32, 64)
	if s.Count() != 32 {
		t.Fatalf("count = %d, want all 32 sets sampled", s.Count())
	}
	for set := 0; set < 32; set++ {
		if s.Index(mem.SetIdxOf(set)) != set {
			t.Fatalf("small-cache sampler must be the identity, got Index(%d)=%d", set, s.Index(mem.SetIdxOf(set)))
		}
	}
}

func TestSignatureDistinguishes(t *testing.T) {
	base := Signature(0x400, false, 0, 13)
	if Signature(0x400, true, 0, 13) == base {
		t.Error("prefetch bit not folded into signature")
	}
	if Signature(0x400, false, 1, 13) == base {
		t.Error("core id not folded into signature")
	}
	if Signature(0x404, false, 0, 13) == base {
		t.Error("different PCs should (almost surely) differ")
	}
	f := func(pc uint64) bool { return Signature(mem.PCOf(pc), false, 0, 13) < 1<<13 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// exercisePolicy drives a policy through a mixed access pattern against a
// real cache and fails on any invalid victim.
func exercisePolicy(t *testing.T, p cache.Policy, sets, ways int) *cache.Cache {
	t.Helper()
	c := cache.New(cache.Config{Name: "T", Sets: sets, Ways: ways}, p)
	for i := 0; i < 20000; i++ {
		addr := mem.Addr(mem.Mix64(uint64(i))%(1<<24)) &^ 63
		typ := mem.Load
		switch i % 7 {
		case 3:
			typ = mem.Store
		case 5:
			typ = mem.Prefetch
		case 6:
			typ = mem.Writeback
		}
		c.Access(mem.Access{
			PC:    mem.PCOf(0x400 + uint64(i%17)*8),
			Addr:  addr,
			Type:  typ,
			Core:  mem.CoreIDOf(i % 4),
			Cycle: mem.CycleOf(uint64(i)),
		})
		// Re-reference some addresses to exercise hit paths.
		if i%3 == 0 {
			c.Access(mem.Access{PC: 0x400, Addr: addr, Type: mem.Load, Core: mem.CoreIDOf(i % 4), Cycle: mem.CycleOf(uint64(i))})
		}
	}
	return c
}

func TestPoliciesSurviveMixedTraffic(t *testing.T) {
	const sets, ways = 64, 4
	policies := map[string]cache.Policy{
		"LRU":        NewLRU(),
		"SRRIP":      NewSRRIP(sets, ways),
		"Hawkeye":    NewHawkeye(sets, ways, 16),
		"Glider":     NewGlider(sets, ways, 4, 16),
		"Mockingjay": NewMockingjay(sets, ways, 16),
		"CARE":       NewCARE(sets, ways, 16),
		"SHiP++":     NewSHiPPP(sets, ways, 16),
		"PACMan":     NewPACMan(sets, ways),
		"DRRIP":      NewDRRIP(sets, ways),
	}
	for name, p := range policies {
		t.Run(name, func(t *testing.T) {
			c := exercisePolicy(t, p, sets, ways)
			if c.Stats().Fills == 0 {
				t.Fatal("no fills recorded")
			}
			if p.Name() == "" {
				t.Fatal("empty policy name")
			}
		})
	}
}

// TestLRUVictimPrefersFirstInvalid: one pass over the set returns the
// first invalid way even when a valid way is older, and the oldest way
// once the set is full.
func TestLRUVictimPrefersFirstInvalid(t *testing.T) {
	blocks := []cache.Block{
		{Valid: true, LastTouch: 0},
		{Valid: true, LastTouch: 9},
		{},
		{},
	}
	if w, bypass := NewLRU().Victim(0, blocks, mem.Access{}); w != 2 || bypass {
		t.Fatalf("victim = %d (bypass %v), want way 2 (first invalid way)", w, bypass)
	}
	blocks[2] = cache.Block{Valid: true, LastTouch: 5}
	blocks[3] = cache.Block{Valid: true, LastTouch: 7}
	if w, _ := NewLRU().Victim(0, blocks, mem.Access{}); w != 0 {
		t.Fatalf("victim = %d, want way 0 (oldest LastTouch)", w)
	}
}

// lruWay is the one-pass victim: the cache's tag pass, which cache.LRU's
// Victim runs.
func lruWay(blocks []cache.Block) int {
	w, _ := NewLRU().Victim(0, blocks, mem.Access{})
	return w
}

// scanLRUWay is the reference for lruWay: the early-exit scan it replaced,
// which returns the first invalid way, else the first way with the oldest
// LastTouch.
func scanLRUWay(blocks []cache.Block) int {
	best, bestTouch := 0, ^mem.Cycle(0)
	for w := range blocks {
		if !blocks[w].Valid {
			return w
		}
		if blocks[w].LastTouch < bestTouch {
			best, bestTouch = w, blocks[w].LastTouch
		}
	}
	return best
}

// randomSet draws a set of 1 to cache.MaxWays ways: empty, full or mixed,
// with LastTouch from a narrow range (ties and 0) or up to the largest the
// packed keys allow (LastTouch+1 < 2^54).
func randomSet(r *rand.Rand) []cache.Block {
	blocks := make([]cache.Block, 1+r.IntN(cache.MaxWays))
	pValid := []float64{0, 1, 0.8, 0.5}[r.IntN(4)]
	for w := range blocks {
		if r.Float64() < pValid {
			touch := r.Uint64N(4)
			if r.IntN(2) == 0 {
				touch = r.Uint64N(1<<54 - 1)
			}
			blocks[w] = cache.Block{Valid: true, LastTouch: mem.CycleOf(touch)}
		}
	}
	return blocks
}

// TestLRUWayMatchesScan holds the one-pass victim to the early-exit scan on
// named edge cases and on random sets.
func TestLRUWayMatchesScan(t *testing.T) {
	valid := func(touch ...uint64) []cache.Block {
		var b []cache.Block
		for _, c := range touch {
			b = append(b, cache.Block{Valid: true, LastTouch: mem.CycleOf(c)})
		}
		return b
	}
	cases := []struct {
		name   string
		blocks []cache.Block
	}{
		{"empty", make([]cache.Block, 12)},
		{"one-way", valid(7)},
		{"full-distinct", valid(9, 3, 5, 8)},
		{"full-equal-touch", valid(4, 4, 4, 4)},
		{"full-touch-zero", valid(3, 0, 0, 2)},
		{"touch-zero-before-invalid", append(valid(0, 0), cache.Block{}, cache.Block{})},
		{"invalid-after-older-valid", append(valid(1, 9), cache.Block{}, cache.Block{Valid: true})},
		{"max-touch", valid(1<<54-2, 1<<54-3, 1<<54-2)},
		{"widest-set", append(valid(make([]uint64, cache.MaxWays-1)...), cache.Block{})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got, want := lruWay(tc.blocks), scanLRUWay(tc.blocks); got != want {
				t.Fatalf("lruWay = %d, scan = %d on %+v", got, want, tc.blocks)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewPCG(1, 2))
		for i := 0; i < 20000; i++ {
			blocks := randomSet(r)
			if got, want := lruWay(blocks), scanLRUWay(blocks); got != want {
				t.Fatalf("set %d: lruWay = %d, scan = %d on %+v", i, got, want, blocks)
			}
		}
	})
}

func TestSRRIPPromotionAndAging(t *testing.T) {
	p := NewSRRIP(1, 2)
	c := cache.New(cache.Config{Name: "T", Sets: 1, Ways: 2}, p)
	a := func(addr mem.Addr, cycle mem.Cycle) cache.Result {
		return c.Access(mem.Access{PC: 1, Addr: addr, Type: mem.Load, Cycle: cycle})
	}
	a(0x000, 1)
	a(0x040, 2)
	a(0x000, 3) // promote block 0 to RRPV 0
	res := a(0x080, 4)
	if !res.EvictedValid || res.Evicted.Addr != 0x040 {
		t.Fatalf("SRRIP should evict the non-promoted block, got %+v", res.Evicted)
	}
}

func TestOptGenFitsWithinCapacity(t *testing.T) {
	g := newOptGen(2) // 2-way: OPT caches up to 2 overlapping intervals
	var ctx [pchrDepth]uint16
	// Access pattern A B A B: both reuse intervals overlap but fit (cap 2).
	g.Access(1, 100, ctx)
	g.Access(2, 200, ctx)
	if label, sig, _ := g.Access(1, 101, ctx); label != optHit || sig != 100 {
		t.Fatalf("A reuse: label %v sig %d, want hit/100", label, sig)
	}
	if label, _, _ := g.Access(2, 201, ctx); label != optHit {
		t.Fatalf("B reuse should be an OPT hit with capacity 2")
	}
}

func TestOptGenDetectsOverCapacity(t *testing.T) {
	g := newOptGen(1) // 1-way
	var ctx [pchrDepth]uint16
	// A B A: A's interval has B inside it; occupancy(1) is full after B's
	// interval would... build explicitly: A@0, B@1, B@2 (B hits, occupying
	// [1,2)), then A@3 must see a full quantum and miss.
	g.Access(1, 0, ctx)
	g.Access(2, 0, ctx)
	if label, _, _ := g.Access(2, 0, ctx); label != optHit {
		t.Fatal("B's immediate reuse should be an OPT hit")
	}
	if label, _, _ := g.Access(1, 0, ctx); label != optMiss {
		t.Fatal("A's reuse across B's cached interval must be an OPT miss at 1-way")
	}
}

func TestOptGenNoHistoryNoLabel(t *testing.T) {
	g := newOptGen(2)
	var ctx [pchrDepth]uint16
	if label, _, _ := g.Access(42, 1, ctx); label != optNone {
		t.Fatal("first access to a block must yield no label")
	}
}

func TestOptGenWindowExpiry(t *testing.T) {
	g := newOptGen(1) // window = 8
	var ctx [pchrDepth]uint16
	g.Access(1, 0, ctx)
	for i := 0; i < 20; i++ {
		g.Access(mem.BlockAddrOf(uint64(100+i)), 0, ctx)
	}
	// The original access is beyond the window (and evicted from history):
	// no label.
	if label, _, _ := g.Access(1, 0, ctx); label != optNone {
		t.Fatal("re-access beyond the window must not be adjudicated")
	}
}

func TestHawkeyeLearnsStreamingIsAverse(t *testing.T) {
	const sets, ways = 16, 2
	h := NewHawkeye(sets, ways, sets) // sample all sets
	c := cache.New(cache.Config{Name: "T", Sets: sets, Ways: ways}, h)
	// Pure streaming from one PC: no reuse, so OPTgen never sees a hit and
	// eviction detraining drives the PC's counter down.
	for i := 0; i < 30000; i++ {
		c.Access(mem.Access{PC: 0x1234, Addr: mem.Addr(i * 64), Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
	}
	sig := Signature(0x1234, false, 0, hawkeyeTableBits)
	if h.counters[sig] >= 4 {
		t.Fatalf("streaming PC counter = %d, want cache-averse (< 4)", h.counters[sig])
	}
}

func TestHawkeyeKeepsReusedBlocksLonger(t *testing.T) {
	const sets, ways = 16, 2
	h := NewHawkeye(sets, ways, sets)
	c := cache.New(cache.Config{Name: "T", Sets: sets, Ways: ways}, h)
	cycle := mem.Cycle(0)
	tick := func() mem.Cycle { cycle++; return cycle }
	// Interleave a hot block (PC A, immediate reuse) with a stream (PC B).
	hot := mem.Addr(0)
	for i := 0; i < 20000; i++ {
		c.Access(mem.Access{PC: 0xA, Addr: hot, Type: mem.Load, Cycle: tick()})
		c.Access(mem.Access{PC: 0xB, Addr: mem.Addr((i + 100) * 64), Type: mem.Load, Cycle: tick()})
	}
	sigA := Signature(0xA, false, 0, hawkeyeTableBits)
	sigB := Signature(0xB, false, 0, hawkeyeTableBits)
	if h.counters[sigA] <= h.counters[sigB] {
		t.Fatalf("hot PC counter (%d) should exceed streaming PC counter (%d)",
			h.counters[sigA], h.counters[sigB])
	}
}

func TestMockingjayBypassesStreaming(t *testing.T) {
	const sets, ways = 16, 2
	m := NewMockingjay(sets, ways, sets)
	c := cache.New(cache.Config{Name: "T", Sets: sets, Ways: ways}, m)
	for i := 0; i < 40000; i++ {
		c.Access(mem.Access{PC: 0x77, Addr: mem.Addr(i * 64), Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
	}
	st := c.Stats()
	if st.Bypasses == 0 {
		t.Fatal("Mockingjay should learn to bypass a pure stream")
	}
}

func TestMockingjayCachesHotBlocks(t *testing.T) {
	const sets, ways = 16, 4
	m := NewMockingjay(sets, ways, sets)
	c := cache.New(cache.Config{Name: "T", Sets: sets, Ways: ways}, m)
	// Hot set of 32 blocks cycled repeatedly: short reuse distance.
	for i := 0; i < 40000; i++ {
		addr := mem.Addr((i % 32) * 64)
		c.Access(mem.Access{PC: 0x99, Addr: addr, Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
	}
	st := c.Stats()
	ratio := float64(st.DemandHits()) / float64(st.DemandAccesses())
	if ratio < 0.9 {
		t.Fatalf("hot-set hit ratio %.2f, want >= 0.9 (blocks must be cached)", ratio)
	}
}

func TestCAREObstructionDemotesInsertions(t *testing.T) {
	const sets, ways = 16, 2
	mkCare := func(obstructed bool) *CARE {
		cr := NewCARE(sets, ways, sets)
		cr.Obstructed = func(mem.CoreID) bool { return obstructed }
		return cr
	}
	// With an obstructed core, insertion RRPV must be demoted relative to a
	// non-obstructed core for the same access.
	norm, obst := mkCare(false), mkCare(true)
	blocks := make([]cache.Block, ways)
	acc := mem.Access{PC: 0x42, Addr: 0x40, Type: mem.Load, Core: 0}
	norm.OnFill(0, 0, blocks, acc)
	obst.OnFill(0, 0, blocks, acc)
	if obst.rrpv[0][0] <= norm.rrpv[0][0] {
		t.Fatalf("obstructed insertion rrpv %d should exceed normal %d",
			obst.rrpv[0][0], norm.rrpv[0][0])
	}
	norm.OnHit(0, 0, blocks, acc)
	obst.OnHit(0, 0, blocks, acc)
	if obst.rrpv[0][0] <= norm.rrpv[0][0] {
		t.Fatal("obstructed promotion should be weaker than normal promotion")
	}
}

func TestSHiPPPPrefetchInsertedDistant(t *testing.T) {
	const sets, ways = 16, 2
	p := NewSHiPPP(sets, ways, sets)
	blocks := make([]cache.Block, ways)
	demand := mem.Access{PC: 0x42, Addr: 0x40, Type: mem.Load}
	pfAcc := mem.Access{PC: 0x42, Addr: 0x80, Type: mem.Prefetch}
	p.OnFill(0, 0, blocks, demand)
	p.OnFill(0, 1, blocks, pfAcc)
	if p.rrpv[0][1] <= p.rrpv[0][0] {
		t.Fatalf("prefetch insertion rrpv %d should be more distant than demand %d",
			p.rrpv[0][1], p.rrpv[0][0])
	}
}

// TestSHiPPPCounterSaturates holds the SHCT to a 3-bit saturating
// counter. After 20 first re-references it sits at 7, so two dead fills
// (evicted without re-reference) take it below the reuse threshold and the
// next demand fill must not insert at RRPV 0. Ten more dead fills floor it
// at 0, where a demand fill inserts at the distant RRPV.
func TestSHiPPPCounterSaturates(t *testing.T) {
	const sets, ways = 16, 2
	p := NewSHiPPP(sets, ways, sets)
	if p.sampler.Index(0) < 0 {
		t.Fatal("set 0 is not sampled")
	}
	blocks := make([]cache.Block, ways)
	demand := mem.Access{PC: 0x42, Addr: 0x40, Type: mem.Load}
	deadFills := func(n int) {
		for i := 0; i < n; i++ {
			p.OnFill(0, 0, blocks, demand)
			p.OnEvict(0, 0, blocks)
		}
	}
	for i := 0; i < 20; i++ {
		p.OnFill(0, 0, blocks, demand)
		p.OnHit(0, 0, blocks, demand)
	}
	deadFills(2)
	p.OnFill(0, 0, blocks, demand)
	if p.rrpv[0][0] == 0 {
		t.Fatal("demand fill inserted at RRPV 0 after 2 dead fills: the SHCT counted past its 3-bit ceiling")
	}
	deadFills(10)
	p.OnFill(0, 0, blocks, demand)
	if p.rrpv[0][0] != maxRRPV {
		t.Fatalf("demand fill after 12 dead fills inserted at RRPV %d, want %d: the SHCT wrapped below 0", p.rrpv[0][0], maxRRPV)
	}
}

func TestGliderLearnsStreamVsReuse(t *testing.T) {
	const sets, ways = 16, 2
	g := NewGlider(sets, ways, 1, sets)
	c := cache.New(cache.Config{Name: "T", Sets: sets, Ways: ways}, g)
	cycle := mem.Cycle(0)
	tick := func() mem.Cycle { cycle++; return cycle }
	for i := 0; i < 30000; i++ {
		c.Access(mem.Access{PC: 0xA, Addr: 0, Type: mem.Load, Cycle: tick()})
		c.Access(mem.Access{PC: 0xB, Addr: mem.Addr((i + 100) * 64), Type: mem.Load, Cycle: tick()})
	}
	// The hot PC's ISVM should score higher than the streaming PC's for the
	// live feature context.
	f := g.features(0)
	hotScore := g.score(g.pcIndex(mem.Access{PC: 0xA}), f)
	streamScore := g.score(g.pcIndex(mem.Access{PC: 0xB}), f)
	if hotScore <= streamScore {
		t.Fatalf("hot PC ISVM score %d should exceed streaming PC score %d", hotScore, streamScore)
	}
}

func TestPACManPrefetchTreatment(t *testing.T) {
	const sets, ways = 64, 2
	p := NewPACMan(sets, ways)
	blocks := make([]cache.Block, ways)
	demand := mem.Access{PC: 1, Addr: 0x40, Type: mem.Load}
	pfAcc := mem.Access{PC: 1, Addr: 0x80, Type: mem.Prefetch}
	// Find a follower set to get deterministic variant behaviour.
	set := -1
	for s := 0; s < sets; s++ {
		if !p.leaderH[s] && !p.leaderM[s] {
			set = s
			break
		}
	}
	if set < 0 {
		t.Fatal("no follower set found")
	}
	p.OnFill(mem.SetIdxOf(set), 0, blocks, demand)
	p.OnFill(mem.SetIdxOf(set), 1, blocks, pfAcc)
	if p.rrpv[set][1] < p.rrpv[set][0] {
		t.Fatalf("prefetch fill rrpv %d should not be closer than demand %d",
			p.rrpv[set][1], p.rrpv[set][0])
	}
	// Prefetch hits must not promote; demand hits must.
	p.rrpv[set][0] = 2
	p.OnHit(mem.SetIdxOf(set), 0, blocks, pfAcc)
	if p.rrpv[set][0] != 2 {
		t.Fatal("prefetch hit promoted the line")
	}
	p.OnHit(mem.SetIdxOf(set), 0, blocks, demand)
	if p.rrpv[set][0] != 0 {
		t.Fatal("demand hit did not promote the line")
	}
}

// TestPACManSetDueling drives demand misses into each variant's leaders:
// H-leader misses saturate psel at pselMax, and misses in a pure M-leader
// (a set that is not also an H-leader, whose flag wins) drain it to 0.
func TestPACManSetDueling(t *testing.T) {
	const sets, ways = 64, 2
	p := NewPACMan(sets, ways)
	leaderH, leaderM := -1, -1
	for s := sets - 1; s >= 0; s-- {
		if p.leaderH[s] {
			leaderH = s
		} else if p.leaderM[s] {
			leaderM = s
		}
	}
	if leaderH < 0 || leaderM < 0 {
		t.Fatalf("no H-leader (%d) or pure M-leader (%d)", leaderH, leaderM)
	}
	blocks := make([]cache.Block, ways)
	miss := func(set int) {
		for i := 0; i < 2*p.pselMax; i++ {
			p.Victim(mem.SetIdxOf(set), blocks, mem.Access{PC: 1, Addr: mem.Addr(i * 64), Type: mem.Load})
		}
	}
	miss(leaderH)
	if p.psel != p.pselMax {
		t.Fatalf("psel after %d H-leader misses = %d, want saturation at %d", 2*p.pselMax, p.psel, p.pselMax)
	}
	miss(leaderM)
	if p.psel != 0 {
		t.Fatalf("psel after %d M-leader misses = %d, want saturation at 0", 2*p.pselMax, p.psel)
	}
}

// TestDRRIPSetDueling drives demand misses into each policy's leaders:
// SRRIP-leader misses saturate psel at pselMax, and misses in a pure
// BRRIP-leader (a set that is not also an SRRIP-leader, whose flag wins)
// drain it to 0.
func TestDRRIPSetDueling(t *testing.T) {
	const sets, ways = 64, 2
	d := NewDRRIP(sets, ways)
	leaderS, leaderB := -1, -1
	for s := sets - 1; s >= 0; s-- {
		if d.leaderS[s] {
			leaderS = s
		} else if d.leaderB[s] {
			leaderB = s
		}
	}
	if leaderS < 0 || leaderB < 0 {
		t.Fatalf("no SRRIP-leader (%d) or pure BRRIP-leader (%d)", leaderS, leaderB)
	}
	blocks := make([]cache.Block, ways)
	miss := func(set int) {
		for i := 0; i < 2*d.pselMax; i++ {
			d.Victim(mem.SetIdxOf(set), blocks, mem.Access{PC: 1, Addr: mem.Addr(i * 64), Type: mem.Load})
		}
	}
	miss(leaderS)
	if d.psel != d.pselMax {
		t.Fatalf("psel after %d SRRIP-leader misses = %d, want saturation at %d", 2*d.pselMax, d.psel, d.pselMax)
	}
	miss(leaderB)
	if d.psel != 0 {
		t.Fatalf("psel after %d BRRIP-leader misses = %d, want saturation at 0", 2*d.pselMax, d.psel)
	}
}

func TestDRRIPBimodalInsertion(t *testing.T) {
	const sets, ways = 64, 2
	d := NewDRRIP(sets, ways)
	// Force BRRIP mode by draining psel.
	d.psel = 0
	set := -1
	for s := 0; s < sets; s++ {
		if !d.leaderS[s] && !d.leaderB[s] {
			set = s
			break
		}
	}
	if set < 0 {
		t.Fatal("no follower set")
	}
	blocks := make([]cache.Block, ways)
	distant, near := 0, 0
	for i := 0; i < 320; i++ {
		d.OnFill(mem.SetIdxOf(set), 0, blocks, mem.Access{PC: 1, Type: mem.Load})
		if d.rrpv[set][0] == maxRRPV {
			distant++
		} else {
			near++
		}
	}
	if near == 0 || distant < near*8 {
		t.Fatalf("BRRIP insertion mix wrong: %d distant, %d near (want ~31:1)", distant, near)
	}
}

// TestHawkeyeAgingProtectsNewFriendly: filling a friendly line ages other
// friendly lines so the set keeps rotating instead of pinning.
func TestHawkeyeAgingProtectsNewFriendly(t *testing.T) {
	const sets, ways = 4, 3
	h := NewHawkeye(sets, ways, sets)
	blocks := make([]cache.Block, ways)
	for i := range blocks {
		blocks[i].Valid = true
	}
	// Mark all counters friendly so fills take the friendly path.
	for i := range h.counters {
		h.counters[i] = 7
	}
	acc := mem.Access{PC: 0x42, Addr: 0x40, Type: mem.Load}
	h.OnFill(0, 0, blocks, acc)
	h.OnFill(0, 1, blocks, acc)
	if h.rrpv[0][0] == 0 {
		t.Fatal("older friendly line was not aged by a newer friendly fill")
	}
	if h.rrpv[0][1] != 0 {
		t.Fatal("new friendly line must insert at rrpv 0")
	}
}

// TestGliderPCHRShifts: the PC history register must reflect recent PCs.
func TestGliderPCHRShifts(t *testing.T) {
	g := NewGlider(16, 2, 1, 16)
	for pc := mem.PC(1); pc <= 5; pc++ {
		g.pushPC(mem.Access{PC: pc})
	}
	f1 := g.features(0)
	g.pushPC(mem.Access{PC: 99})
	f2 := g.features(0)
	same := true
	for i := range f1 {
		if f1[i] != f2[i] {
			same = false
		}
	}
	if same {
		t.Fatal("pushing a new PC did not change the feature context")
	}
}

// TestCARESampledDetraining: an unused eviction in a sampled set must
// decrement the fill signature's counter; non-sampled sets must not train.
func TestCARESampledDetraining(t *testing.T) {
	const sets, ways = 64, 2
	c := NewCARE(sets, ways, sets) // all sampled
	blocks := make([]cache.Block, ways)
	acc := mem.Access{PC: 0x99, Addr: 0x40, Type: mem.Load}
	sig := c.sig(acc)
	before := c.shct[sig]
	c.OnFill(0, 0, blocks, acc)
	c.OnEvict(0, 0, blocks) // evicted without a hit
	if c.shct[sig] != before-1 {
		t.Fatalf("unused eviction did not detrain: %d -> %d", before, c.shct[sig])
	}
	// Hit then evict: net zero (one up on first reref, no down).
	c.OnFill(0, 0, blocks, acc)
	c.OnHit(0, 0, blocks, acc)
	mid := c.shct[sig]
	c.OnEvict(0, 0, blocks)
	if c.shct[sig] != mid {
		t.Fatalf("used eviction must not detrain: %d -> %d", mid, c.shct[sig])
	}
}
