package chrome

// TestAllocBudget pins the simulator's zero-allocation contract (DESIGN.md
// §7): nothing on the per-access path allocates in steady state. The
// System subtests run every scheme's full system step, and together the
// subtests reach every //chromevet:hot function. Each subtest warms its
// structure to its high-water mark first, so one-time growth (prefetch
// scratch, sampled-set histories) is excluded and only per-access traffic
// is measured.

import (
	"testing"

	"chrome/internal/cache"
	intchrome "chrome/internal/chrome"
	"chrome/internal/experiments"
	"chrome/internal/mem"
	"chrome/internal/policy"
	"chrome/internal/sim"
	"chrome/internal/workload"
)

func TestAllocBudget(t *testing.T) {
	const warm = 50_000

	check := func(t *testing.T, name string, fn func(i int)) {
		t.Helper()
		for i := 0; i < warm; i++ {
			fn(i)
		}
		if avg := testing.AllocsPerRun(1000, func() {
			fn(warm)
		}); avg != 0 {
			t.Errorf("%s: %.2f allocs/op, want 0", name, avg)
		}
	}

	t.Run("CacheAccessLRU", func(t *testing.T) {
		c := cache.New(cache.Config{Name: "B", Sets: 2048, Ways: 12}, policy.NewLRU())
		check(t, "cache access (LRU)", func(i int) {
			addr := mem.Addr(mem.Mix64(uint64(i)) % (1 << 28) &^ 63)
			c.Access(mem.Access{PC: 1, Addr: addr, Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
		})
	})

	t.Run("CacheAccessCHROME", func(t *testing.T) {
		cfg := intchrome.DefaultConfig()
		cfg.SampledSets = 256
		a := intchrome.New(cfg, 2048, 12)
		c := cache.New(cache.Config{Name: "B", Sets: 2048, Ways: 12}, a)
		check(t, "cache access (CHROME)", func(i int) {
			addr := mem.Addr(mem.Mix64(uint64(i)) % (1 << 28) &^ 63)
			c.Access(mem.Access{PC: mem.PCOf(uint64(i % 31)), Addr: addr, Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
		})
	})

	t.Run("AgentStep", func(t *testing.T) {
		cfg := intchrome.DefaultConfig()
		cfg.SampledSets = 256
		cfg.StateFeatures = []intchrome.FeatureKind{intchrome.FeatPCHistory, intchrome.FeatDeltaHistory}
		a := intchrome.New(cfg, 2048, 12)
		check(t, "Agent.Step (PC and delta history)", func(i int) {
			addr := mem.Addr(mem.Mix64(uint64(i)) % (1 << 28) &^ 63)
			a.Step(mem.Access{PC: mem.PCOf(uint64(i % 31)), Addr: addr, Type: mem.Load, Cycle: mem.CycleOf(uint64(i))}, i&3 == 0)
		})
	})

	t.Run("QTableLookup", func(t *testing.T) {
		qt := intchrome.NewQTable(intchrome.DefaultConfig())
		check(t, "QTable lookup", func(i int) {
			st := intchrome.NewState(0x1234, uint64(i))
			qt.BestAction(st, i&1 == 0)
		})
	})

	t.Run("QTableUpdate", func(t *testing.T) {
		qt := intchrome.NewQTable(intchrome.DefaultConfig())
		check(t, "QTable update", func(i int) {
			st := intchrome.NewState(uint64(i&1023), 0x567)
			qt.Update(st, intchrome.ActionEPV0, 10, 0.5)
		})
	})

	t.Run("EQInsert", func(t *testing.T) {
		eq := intchrome.NewEQ(64, 28)
		e := intchrome.EQEntry{AddrHash: 7}
		check(t, "EQ insert", func(i int) {
			e.AddrHash = uint16(i & 0xffff)
			eq.Insert(i&63, e)
		})
	})

	t.Run("TraceNext", func(t *testing.T) {
		for _, p := range workload.All() {
			g := p.New(0)
			check(t, "trace Next ("+p.Name+")", func(int) {
				g.Next()
			})
		}
	})

	t.Run("ReplayNext", func(t *testing.T) {
		p, err := workload.ByName("mcf")
		if err != nil {
			t.Fatal(err)
		}
		// Budget 300k instructions ≈ 100k records at mcf's ~3 instr/record:
		// comfortably more than the ~51k Next calls below, so the replayer
		// never exhausts.
		g := workload.HomogeneousMix(p, 1, 300_000)[0]
		check(t, "replay Next (mcf)", func(int) {
			g.Next()
		})
	})

	t.Run("DRAMAccess", func(t *testing.T) {
		d := sim.NewDRAM()
		check(t, "DRAM access", func(i int) {
			d.Access(mem.Addr(i*64), mem.CycleOf(uint64(i*3)), i&7 == 0)
		})
	})

	// A whole 4-core system per scheme, default prefetchers, one
	// heterogeneous mix. Run's fixed cost (collect's per-core Result
	// slices) is the same for any length, so a Run of 40,000 instructions
	// per core allocating more than one of 1,000 means the step itself
	// allocates. AllocsPerRun calls its function once more as a warm-up,
	// so the cores retire 20,000 + 5×1,000 + 5×40,000 = 225,000
	// instructions each, the recordings' budget.
	t.Run("System", func(t *testing.T) {
		pf := experiments.PFDefault()
		mix := workload.HeterogeneousMixes(4, 1, 1)[0]
		for _, s := range experiments.AllSchemes() {
			t.Run(s.Name, func(t *testing.T) {
				cfg := sim.ScaledConfig(4)
				cfg.L1Prefetcher, cfg.L2Prefetcher = pf.L1, pf.L2
				sys := sim.New(cfg, mix.Generators(225_000), s.Factory)
				target := mem.Instr(20_000)
				sys.Run(0, target)
				perRun := func(step mem.Instr) float64 {
					return testing.AllocsPerRun(4, func() {
						target += step
						sys.Run(0, target)
					})
				}
				if short, long := perRun(1_000), perRun(40_000); short != long {
					t.Errorf("%s: %.0f allocs per Run of 1,000 instructions/core, %.0f per Run of 40,000: the system step allocates",
						s.Name, short, long)
				}
			})
		}
	})
}
