package chrome

// The benchmark harness: one testing.B benchmark per table and figure of
// the CHROME paper's evaluation (DESIGN.md §3), plus ablation benches for
// the design decisions called out in DESIGN.md §4 and micro-benchmarks of
// the performance-critical structures.
//
// Figure benches run the corresponding experiment runner at a reduced
// "bench" scale and attach the reproduced headline metric via
// b.ReportMetric (look for speedup_pct / ratio metrics in the -bench
// output). Absolute wall-clock time measures the harness, not the paper's
// system; the attached metrics carry the reproduction shape.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Run one figure:
//
//	go test -bench=BenchmarkFig10

import (
	"fmt"
	"testing"

	"chrome/internal/cache"
	"chrome/internal/cache/mono"
	intchrome "chrome/internal/chrome"
	"chrome/internal/cpu"
	"chrome/internal/experiments"
	"chrome/internal/mem"
	"chrome/internal/metrics"
	"chrome/internal/objcache"
	"chrome/internal/policy"
	"chrome/internal/sim"
	"chrome/internal/trace"
	"chrome/internal/workload"
)

// benchScale keeps figure benches to a few seconds per iteration (they
// exist to regenerate each artifact's shape quickly; the recorded numbers
// come from cmd/experiments -scale full).
func benchScale() experiments.Scale {
	return experiments.Scale{
		Warmup: 8_000, Measure: 30_000,
		Profiles:     1,
		HeteroMixes4: 2, HeteroMixes8: 1, HeteroMixes16: 1,
		Seed: 1,
	}
}

// runFigure executes a runner once per iteration and reports the summary
// metrics of the first report plus the simulated throughput (sim_MIPS:
// retired instructions per wall-second — the BENCH_*.json throughput
// trajectory).
func runFigure(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.RunnerByID(id)
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScale()
	var reports []experiments.Report
	i0 := experiments.SimulatedInstructions()
	for i := 0; i < b.N; i++ {
		reports = r.Run(sc)
	}
	reportMIPS(b, experiments.SimulatedInstructions()-i0)
	if len(reports) == 0 {
		b.Fatal("runner produced no reports")
	}
	for k, v := range reports[0].Summary {
		b.ReportMetric(v, k)
	}
}

// reportMIPS attaches simulated MIPS over the bench's measured window.
func reportMIPS(b *testing.B, instructions uint64) {
	b.Helper()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(instructions)/1e6/secs, "sim_MIPS")
	}
}

// --- One bench per paper artifact (DESIGN.md §3) ---------------------------

func BenchmarkFig01(b *testing.B)  { runFigure(b, "fig01") }
func BenchmarkFig02(b *testing.B)  { runFigure(b, "fig02") }
func BenchmarkFig03(b *testing.B)  { runFigure(b, "fig03") }
func BenchmarkFig06(b *testing.B)  { runFigure(b, "fig06-08") }
func BenchmarkFig09(b *testing.B)  { runFigure(b, "fig09") }
func BenchmarkFig10(b *testing.B)  { runFigure(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runFigure(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runFigure(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { runFigure(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { runFigure(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runFigure(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { runFigure(b, "fig16") }
func BenchmarkTabIII(b *testing.B) { runFigure(b, "tab03-04") }
func BenchmarkTabVII(b *testing.B) { runFigure(b, "tab07") }

// --- Ablation benches (DESIGN.md §4) ---------------------------------------

// benchWorkloadSpeedup runs CHROME with cfg on a fixed mix and reports the
// weighted speedup over LRU.
func benchWorkloadSpeedup(b *testing.B, ccfg intchrome.Config, sysMod func(*sim.Config)) {
	b.Helper()
	p, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	pf := experiments.PFDefault()
	run := func(factory sim.PolicyFactory) sim.Result {
		cfg := sim.ScaledConfig(4)
		cfg.L1Prefetcher = pf.L1
		cfg.L2Prefetcher = pf.L2
		if sysMod != nil {
			sysMod(&cfg)
		}
		sys := sim.New(cfg, workload.HomogeneousMix(p, 4), factory)
		return sys.Run(20_000, 80_000)
	}
	var ws float64
	for i := 0; i < b.N; i++ {
		base := run(experiments.LRUScheme().Factory)
		res := run(func(sets, ways, cores int, obstructed func(mem.CoreID) bool) cache.Policy {
			a := intchrome.New(ccfg, sets, ways)
			a.Obstructed = obstructed
			return a
		})
		ws = metrics.WeightedSpeedup(res.IPC, base.IPC)
	}
	b.ReportMetric(metrics.SpeedupPercent(ws), "speedup_pct")
}

// BenchmarkAblationQComposeMax/Sum compare the paper's max-of-features
// Q-composition against the Pythia-style sum (DESIGN.md §4.1).
func BenchmarkAblationQComposeMax(b *testing.B) {
	cfg := experiments.ChromeConfig()
	cfg.Compose = intchrome.ComposeMax
	benchWorkloadSpeedup(b, cfg, nil)
}

func BenchmarkAblationQComposeSum(b *testing.B) {
	cfg := experiments.ChromeConfig()
	cfg.Compose = intchrome.ComposeSum
	benchWorkloadSpeedup(b, cfg, nil)
}

// BenchmarkAblationSampling sweeps the sampled-set density (the paper's
// hardware uses 64; scaled runs use 256 — DESIGN.md §4.3).
func BenchmarkAblationSampling64(b *testing.B) {
	cfg := experiments.ChromeConfig()
	cfg.SampledSets = 64
	benchWorkloadSpeedup(b, cfg, nil)
}

func BenchmarkAblationSampling512(b *testing.B) {
	cfg := experiments.ChromeConfig()
	cfg.SampledSets = 512
	benchWorkloadSpeedup(b, cfg, nil)
}

// BenchmarkAblationROB sweeps the core model's reorder-buffer size
// (DESIGN.md §4.5): memory-level parallelism drops with a small ROB.
func BenchmarkAblationROB64(b *testing.B) {
	benchWorkloadSpeedup(b, experiments.ChromeConfig(), func(c *sim.Config) { c.CPU = cpu.Config{Width: 6, ROB: 64} })
}

func BenchmarkAblationROB512(b *testing.B) {
	benchWorkloadSpeedup(b, experiments.ChromeConfig(), func(c *sim.Config) { c.CPU = cpu.Config{Width: 6, ROB: 512} })
}

// --- Micro-benchmarks of the hot structures --------------------------------

func BenchmarkQTableLookup(b *testing.B) {
	qt := intchrome.NewQTable(intchrome.DefaultConfig())
	st := intchrome.NewState(0x1234, 0x567)
	var sink float64
	for i := 0; i < b.N; i++ {
		st = intchrome.NewState(0x1234, uint64(i))
		_, sink = qt.BestAction(st, i&1 == 0)
	}
	_ = sink
}

func BenchmarkQTableUpdate(b *testing.B) {
	qt := intchrome.NewQTable(intchrome.DefaultConfig())
	st := intchrome.NewState(0x1234, 0x567)
	for i := 0; i < b.N; i++ {
		st = intchrome.NewState(uint64(i&1023), 0x567)
		qt.Update(st, intchrome.ActionEPV0, 10, 0.5)
	}
}

func BenchmarkEQInsert(b *testing.B) {
	eq := intchrome.NewEQ(64, 28)
	e := intchrome.EQEntry{AddrHash: 7}
	for i := 0; i < b.N; i++ {
		e.AddrHash = uint16(i)
		eq.Insert(i&63, e)
	}
}

func BenchmarkCacheAccessLRU(b *testing.B) {
	c := cache.New(cache.Config{Name: "B", Sets: 2048, Ways: 12}, policy.NewLRU())
	for i := 0; i < b.N; i++ {
		addr := mem.Addr(mem.Mix64(uint64(i)) % (1 << 28) &^ 63)
		c.Access(mem.Access{PC: 1, Addr: addr, Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
	}
}

func BenchmarkCacheAccessCHROME(b *testing.B) {
	cfg := intchrome.DefaultConfig()
	cfg.SampledSets = 256
	a := intchrome.New(cfg, 2048, 12)
	c := cache.New(cache.Config{Name: "B", Sets: 2048, Ways: 12}, a)
	for i := 0; i < b.N; i++ {
		addr := mem.Addr(mem.Mix64(uint64(i)) % (1 << 28) &^ 63)
		c.Access(mem.Access{PC: mem.PCOf(uint64(i % 31)), Addr: addr, Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
	}
}

// BenchmarkMonoAccessLRU/CHROME are the monomorphized counterparts of the
// two cache-access benches above: the same access stream served by the
// generated per-scheme cache (DESIGN.md §9), so the pair quantifies what
// devirtualizing the four per-access policy hooks buys.
func BenchmarkMonoAccessLRU(b *testing.B) {
	c := mono.NewLRU(cache.Config{Name: "B", Sets: 2048, Ways: 12}, policy.NewLRU())
	for i := 0; i < b.N; i++ {
		addr := mem.Addr(mem.Mix64(uint64(i)) % (1 << 28) &^ 63)
		c.Access(mem.Access{PC: 1, Addr: addr, Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
	}
}

func BenchmarkMonoAccessCHROME(b *testing.B) {
	cfg := intchrome.DefaultConfig()
	cfg.SampledSets = 256
	a := intchrome.New(cfg, 2048, 12)
	c := mono.NewCHROME(cache.Config{Name: "B", Sets: 2048, Ways: 12}, a)
	for i := 0; i < b.N; i++ {
		addr := mem.Addr(mem.Mix64(uint64(i)) % (1 << 28) &^ 63)
		c.Access(mem.Access{PC: mem.PCOf(uint64(i % 31)), Addr: addr, Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
	}
}

func BenchmarkDRAMAccess(b *testing.B) {
	d := sim.NewDRAM(sim.DefaultDRAMConfig())
	for i := 0; i < b.N; i++ {
		d.Access(mem.Addr(i*64), mem.CycleOf(uint64(i*3)), i&7 == 0)
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	p, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	g := p.New(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkGraphTraceGeneration(b *testing.B) {
	g := trace.NewGraph(trace.GraphConfig{
		Name: "bench", Kernel: trace.KernelPR, Kind: trace.GraphPowerLaw,
		Region: 1, Vertices: 1 << 14, AvgDegree: 8, Seed: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkTraceNext measures per-record generation cost across the
// generator families (one representative profile per family), the
// per-family counterpart of the mcf-only BenchmarkTraceGeneration.
func BenchmarkTraceNext(b *testing.B) {
	// Family representatives: streaming (lbm), strided (libquantum),
	// working-set reuse (gcc), pointer-chasing (mcf), phased mix (wrf),
	// graph kernel (pr-tw).
	for _, name := range []string{"lbm", "libquantum", "gcc", "mcf", "wrf", "pr-tw"} {
		b.Run(name, func(b *testing.B) {
			p, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			g := p.New(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next()
			}
		})
	}
}

// BenchmarkRecordVsReplay compares serving one record live against serving
// it from a frozen recording — the per-record payoff of the
// record-once/replay-many engine (sub-benchmark "record" also includes the
// amortized one-time recording cost).
func BenchmarkRecordVsReplay(b *testing.B) {
	p, err := workload.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("live", func(b *testing.B) {
		g := p.New(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Next()
		}
	})
	b.Run("record", func(b *testing.B) {
		for i := 0; i < b.N; i += 100_000 {
			rec := trace.RecordStream(p.New(0), 100_000)
			_ = rec.Len()
		}
	})
	b.Run("replay", func(b *testing.B) {
		rec := workload.Recorded(p, 300_000)
		g := rec.Replayer(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%rec.Len() == 0 {
				g.Reset()
			}
			g.Next()
		}
	})
}

// BenchmarkEndToEnd4Core measures full-system simulation throughput
// (instructions simulated per wall-clock second appear as the inverse of
// ns/op x instructions).
func BenchmarkEndToEnd4Core(b *testing.B) {
	p, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	pf := experiments.PFDefault()
	var instructions uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.ScaledConfig(4)
		cfg.L1Prefetcher = pf.L1
		cfg.L2Prefetcher = pf.L2
		sys := sim.New(cfg, workload.HomogeneousMix(p, 4), experiments.CHROMEScheme(experiments.ChromeConfig()).Factory)
		instructions += sys.Run(10_000, 50_000).TotalInstructions.Uint64()
	}
	reportMIPS(b, instructions)
}

// BenchmarkEndToEnd4CoreReplay is BenchmarkEndToEnd4Core over a shared
// frozen recording instead of live generators: the end-to-end view of the
// record-once/replay-many speedup (generation cost paid once, outside the
// measured loop after the first iteration).
func BenchmarkEndToEnd4CoreReplay(b *testing.B) {
	p, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	pf := experiments.PFDefault()
	workload.Recorded(p, 60_000) // record outside the timed loop
	b.ResetTimer()
	var instructions uint64
	for i := 0; i < b.N; i++ {
		cfg := sim.ScaledConfig(4)
		cfg.L1Prefetcher = pf.L1
		cfg.L2Prefetcher = pf.L2
		sys := sim.New(cfg, workload.HomogeneousReplayMix(p, 4, 60_000), experiments.CHROMEScheme(experiments.ChromeConfig()).Factory)
		instructions += sys.Run(10_000, 50_000).TotalInstructions.Uint64()
	}
	reportMIPS(b, instructions)
}

// benchmarkObjCache measures one closed-loop keyed operation (Get, with a
// cache-aside Set on miss) against a single-shard object store — the
// service-side per-request cost of the lifted agent (DESIGN.md §12)
// against the LRU baseline.
func benchmarkObjCache(b *testing.B, pol string) {
	c := objcache.New(objcache.Config{Shards: 1, CapacityBytes: 8 << 20, Policy: pol, Seed: 1})
	const keys = 8192
	names := make([]string, keys)
	vals := make([][]byte, keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%05d", i)
		vals[i] = make([]byte, 64+(uint64(i)*2654435761)%2048)
	}
	r := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = mem.Mix64(r)
		k := int(r % keys)
		if _, ok := c.Get(names[k]); !ok {
			c.Set(names[k], vals[k])
		}
	}
}

func BenchmarkObjCacheLRU(b *testing.B)    { benchmarkObjCache(b, "lru") }
func BenchmarkObjCacheCHROME(b *testing.B) { benchmarkObjCache(b, "chrome") }
