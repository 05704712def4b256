package chrome

// TestAllocBudget pins the simulator's zero-allocation contract (DESIGN.md
// §7): the per-access operations exercised by the hot microbenches must not
// allocate in steady state. The structural side of the same contract is
// enforced by chromevet's hotalloc analyzer on //chromevet:hot functions;
// this test is the behavioural gate that catches what escape analysis
// decides at compile time. Each subtest warms its structure to its
// high-water mark first, so one-time growth (prefetch scratch, sampled-set
// histories) is excluded and only per-access traffic is measured.

import (
	"testing"

	"chrome/internal/cache"
	intchrome "chrome/internal/chrome"
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
		p, err := workload.ByName("mcf")
		if err != nil {
			t.Fatal(err)
		}
		g := p.New(0)
		check(t, "trace Next (mcf)", func(int) {
			g.Next()
		})
	})

	t.Run("ReplayNext", func(t *testing.T) {
		p, err := workload.ByName("mcf")
		if err != nil {
			t.Fatal(err)
		}
		// Budget 300k instructions ≈ 100k records at mcf's ~3 instr/record:
		// comfortably more than the ~51k Next calls below, so the replayer
		// never exhausts.
		g := p.NewReplay(0, 300_000)
		check(t, "replay Next (mcf)", func(int) {
			g.Next()
		})
	})

	t.Run("DRAMAccess", func(t *testing.T) {
		d := sim.NewDRAM(sim.DefaultDRAMConfig())
		check(t, "DRAM access", func(i int) {
			d.Access(mem.Addr(i*64), mem.CycleOf(uint64(i*3)), i&7 == 0)
		})
	})
}
