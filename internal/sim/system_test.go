package sim

import (
	"sort"
	"testing"

	"chrome/internal/cache"
	"chrome/internal/chrome"
	"chrome/internal/mem"
	"chrome/internal/policy"
	"chrome/internal/prefetch"
	"chrome/internal/workload"
)

func lruFactory(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy {
	return policy.NewLRU()
}

func chromeFactory(sets, ways, cores int, obstructed func(mem.CoreID) bool) cache.Policy {
	cfg := chrome.DefaultConfig()
	cfg.SampledSets = 256 // scaled sampling density for short test runs
	a := chrome.New(cfg, sets, ways)
	a.Obstructed = obstructed
	return a
}

func TestSingleCoreLRURun(t *testing.T) {
	p, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	sys := New(ScaledConfig(1), workload.HomogeneousMix(p, 1, 60_000), lruFactory)
	res := sys.Run(10_000, 50_000)
	if res.IPC[0] <= 0 {
		t.Fatalf("IPC = %v, want > 0", res.IPC[0])
	}
	if res.IPC[0] > 6 {
		t.Fatalf("IPC = %v exceeds the commit width", res.IPC[0])
	}
	// Phase boundaries land on trace-record edges, so the window may
	// undershoot by up to one record's instruction group.
	if res.Instructions[0] < 49_900 {
		t.Fatalf("measured %d instructions, want ~50000", res.Instructions[0])
	}
	if mpki := res.MPKI(); mpki <= 1 {
		t.Fatalf("mcf MPKI = %v, want > 1 (memory-intensive selection criterion)", mpki)
	}
	t.Logf("mcf 1-core LRU: IPC=%.3f MPKI=%.1f missRatio=%.2f", res.IPC[0], res.MPKI(), res.LLC.DemandMissRatio())
}

func TestMultiCoreCHROMERunsAndBypasses(t *testing.T) {
	p, err := workload.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledConfig(4)
	cfg.L1Prefetcher = func() prefetch.Prefetcher { return prefetch.NewNextLine(1) }
	cfg.L2Prefetcher = func() prefetch.Prefetcher { return prefetch.NewStride(2) }
	sys := New(cfg, workload.HomogeneousMix(p, 4, 180_000), chromeFactory)
	res := sys.Run(20_000, 160_000)
	for i, ipc := range res.IPC {
		if ipc <= 0 {
			t.Fatalf("core %d IPC = %v, want > 0", i, ipc)
		}
	}
	if res.LLC.PrefetchFills == 0 {
		t.Fatal("expected prefetch fills at the LLC with prefetching enabled")
	}
	ag, ok := sys.LLC().Policy().(*chrome.Agent)
	if !ok {
		t.Fatal("LLC policy is not the CHROME agent")
	}
	st := ag.Stats()
	if st.Decisions == 0 {
		t.Fatal("CHROME made no decisions")
	}
	if ag.QTable().Updates() == 0 {
		t.Fatal("CHROME performed no SARSA updates")
	}
	t.Logf("CHROME 4-core: decisions=%d bypasses=%d updates=%d upksa=%.0f",
		st.Decisions, st.Bypasses, ag.QTable().Updates(), ag.UPKSA())
}

// TestCAMATMonitorNearExactUnion bounds the monitor's per-core active
// cycles by the exact union of the same core's LLC access intervals, on a
// 4-core heterogeneous mix under CHROME with the default prefetchers. A
// core's records do not reach the monitor in start order: a prefetch is
// stamped with its trigger's cycle, while the demand it follows reaches
// the LLC later, after L1/L2 latency and MSHR waits. The monitor's running
// union cannot count a cycle twice, so it never exceeds the exact union,
// but it misses the part of a late record that falls before the cycles
// already covered. The test holds that loss under 5% per core.
func TestCAMATMonitorNearExactUnion(t *testing.T) {
	mix := workload.HeterogeneousMixes(4, 1, 1)[0]
	cfg := ScaledConfig(4)
	cfg.L1Prefetcher = func() prefetch.Prefetcher { return prefetch.NewNextLine(1) }
	cfg.L2Prefetcher = func() prefetch.Prefetcher { return prefetch.NewStride(2) }
	sys := New(cfg, mix.Generators(120_000), chromeFactory)
	type interval struct{ start, end mem.Cycle }
	ivs := make([][]interval, cfg.Cores)
	late := 0
	sys.onLLC = func(core mem.CoreID, start, latency mem.Cycle) {
		c := ivs[core.Int()]
		if len(c) > 0 && start < c[len(c)-1].start {
			late++
		}
		ivs[core.Int()] = append(c, interval{start, start + latency})
	}
	sys.Run(20_000, 100_000)
	total := 0
	for core, c := range ivs {
		total += len(c)
		sort.Slice(c, func(i, j int) bool { return c[i].start < c[j].start })
		var exact uint64
		var covered mem.Cycle
		for _, iv := range c {
			from := max(iv.start, covered)
			if iv.end > from {
				exact += (iv.end - from).Uint64()
				covered = iv.end
			}
		}
		// CAMAT is the lifetime active cycles over the records counted.
		got := sys.Monitor().CAMAT(mem.CoreIDOf(core)) * float64(len(c))
		t.Logf("core %d: %d records, monitor %.0f active cycles, exact union %d (%.2f%%)",
			core, len(c), got, exact, 100*(got-float64(exact))/float64(exact))
		if got > float64(exact)+0.5 {
			t.Errorf("core %d: monitor counts %.0f active cycles, more than the exact union's %d", core, got, exact)
		}
		if got < 0.95*float64(exact) {
			t.Errorf("core %d: monitor counts %.0f active cycles, under 95%% of the exact union's %d", core, got, exact)
		}
	}
	t.Logf("%d of %d records start before the same core's previous record", late, total)
	if late == 0 {
		t.Error("every record arrived in start order: the mix no longer exercises the monitor's ordering")
	}
}

func TestCAMATMonitorRecordsActivity(t *testing.T) {
	p, err := workload.ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	sys := New(ScaledConfig(2), workload.HomogeneousMix(p, 2, 25_000), lruFactory)
	sys.Run(5_000, 20_000)
	for core := 0; core < 2; core++ {
		if c := sys.Monitor().CAMAT(mem.CoreIDOf(core)); c <= 0 {
			t.Fatalf("core %d C-AMAT = %v, want > 0", core, c)
		}
	}
}
