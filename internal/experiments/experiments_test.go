package experiments

import (
	"strings"
	"testing"

	"chrome/internal/chrome"
	"chrome/internal/metrics"
	"chrome/internal/workload"
)

// tinyScale is the smallest scale that still exercises every code path.
func tinyScale() Scale {
	return Scale{
		Warmup: 5_000, Measure: 20_000,
		Profiles:     1,
		HeteroMixes4: 2, HeteroMixes8: 1, HeteroMixes16: 1,
		Seed: 1,
	}
}

func TestRunnersRegistry(t *testing.T) {
	runners := Runners()
	if len(runners) != 18 {
		t.Fatalf("runner count = %d, want 18", len(runners))
	}
	seen := map[string]bool{}
	for _, r := range runners {
		if r.ID == "" || r.Title == "" || r.Run == nil {
			t.Fatalf("incomplete runner %+v", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate runner id %s", r.ID)
		}
		seen[r.ID] = true
	}
	if _, err := RunnerByID("fig10"); err != nil {
		t.Fatal(err)
	}
	if _, err := RunnerByID("nope"); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestOverheadRunnerMatchesPaper(t *testing.T) {
	reports := TablesIIIandIV(tinyScale())
	if len(reports) != 2 {
		t.Fatalf("want 2 reports, got %d", len(reports))
	}
	if got := reports[0].Summary["total_kb"]; got < 92.6 || got > 92.8 {
		t.Fatalf("Table III total = %v KB, want 92.7", got)
	}
	if !strings.Contains(reports[1].Table.String(), "CHROME") {
		t.Fatal("Table IV missing CHROME row")
	}
}

func TestSchemesProduceDistinctPolicies(t *testing.T) {
	names := map[string]bool{}
	for _, s := range append(DefaultSchemes(), SHiPPPScheme(), CHROMEScheme(NChromeConfig())) {
		p := s.Factory(64, 4, 2, nil)
		if p == nil {
			t.Fatalf("%s factory returned nil", s.Name)
		}
		if names[p.Name()] {
			t.Fatalf("duplicate policy name %s", p.Name())
		}
		names[p.Name()] = true
	}
}

func TestChromeConfigScaledSampling(t *testing.T) {
	if ChromeConfig().SampledSets != scaledSampledSets {
		t.Fatal("ChromeConfig must use the scaled sampling density")
	}
	if NChromeConfig().ConcurrencyAware {
		t.Fatal("NChromeConfig must disable concurrency awareness")
	}
	// The hardware (paper) configuration stays at 64.
	if chrome.DefaultConfig().SampledSets != 64 {
		t.Fatal("paper config must keep 64 sampled sets")
	}
}

func TestPrefetchConfigs(t *testing.T) {
	for _, pf := range []PrefetchConfig{PFDefault(), PFStrideStreamer(), PFIPCP()} {
		if pf.L1 == nil || pf.L2 == nil || pf.Name == "" {
			t.Fatalf("incomplete prefetch config %q", pf.Name)
		}
		if pf.L1() == nil || pf.L2() == nil {
			t.Fatalf("%s factories returned nil", pf.Name)
		}
	}
	if none := PFNone(); none.L1 != nil || none.L2 != nil {
		t.Fatal("PFNone must have nil factories")
	}
}

func TestRunMixProducesComparableResults(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	sc := tinyScale()
	base := runMix(workload.HomogeneousMix(p, 2), 2, LRUScheme(), PFDefault(), sc)
	again := runMix(workload.HomogeneousMix(p, 2), 2, LRUScheme(), PFDefault(), sc)
	for i := range base.IPC {
		if base.IPC[i] != again.IPC[i] {
			t.Fatal("identical runs must produce identical IPC (determinism)")
		}
	}
	if ws := metrics.WeightedSpeedup(again.IPC, base.IPC); ws != 1 {
		t.Fatalf("self-speedup = %v, want exactly 1", ws)
	}
}

func TestSpeedupsHelper(t *testing.T) {
	sc := tinyScale()
	m := workload.HeterogeneousMixes(2, 1, 3)[0]
	schemes := []Scheme{LRUScheme(), MockingjayScheme()}
	ws, results := speedups(m.Generators, 2, schemes, PFDefault(), sc)
	if ws["LRU"] != 1.0 {
		t.Fatalf("LRU self-speedup = %v", ws["LRU"])
	}
	if _, ok := ws["Mockingjay"]; !ok {
		t.Fatal("missing scheme result")
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
}

func TestRepresentativeProfiles(t *testing.T) {
	ps := representativeProfiles(6)
	if len(ps) != 6 {
		t.Fatalf("got %d profiles, want 6", len(ps))
	}
	if ps[0].Name != "gcc" || ps[1].Name != "mcf" {
		t.Fatalf("representative ordering wrong: %s, %s", ps[0].Name, ps[1].Name)
	}
	all := specSubset(Scale{Profiles: 0})
	if len(all) != 27 {
		t.Fatalf("unlimited subset = %d, want 27", len(all))
	}
	limited := specSubset(Scale{Profiles: 3})
	if len(limited) != 6 {
		t.Fatalf("limited subset = %d, want 6 (2x Profiles)", len(limited))
	}
}

func TestCapProfilesAndPick(t *testing.T) {
	ps := workload.BySuite(workload.GAP)
	if got := capProfiles(ps, 5); len(got) != 5 {
		t.Fatalf("capProfiles = %d, want 5", len(got))
	}
	if got := capProfiles(ps, 0); len(got) != len(ps) {
		t.Fatal("capProfiles(0) must keep all")
	}
	if pick(0, 8) != 8 || pick(3, 8) != 3 || pick(10, 8) != 8 {
		t.Fatal("pick logic wrong")
	}
}

func TestReportString(t *testing.T) {
	tab := metrics.NewTable("a")
	tab.AddRow("1")
	r := Report{ID: "figXX", Title: "test", Table: tab,
		Summary: map[string]float64{"x": 1}, Notes: []string{"n"}}
	s := r.String()
	for _, want := range []string{"figXX", "test", "note: n", "x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report output missing %q:\n%s", want, s)
		}
	}
}

// TestFig2SmallScale runs the cheapest simulation-backed runner end to end.
func TestFig2SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	reports := Fig2(tinyScale())
	if len(reports) != 1 {
		t.Fatal("want one report")
	}
	unused := reports[0].Summary["avg_unused_fraction"]
	if unused <= 0 || unused > 1 {
		t.Fatalf("unused fraction = %v, want in (0,1]", unused)
	}
}

// TestTableVIISmallScale checks the UPKSA trend: larger FIFOs mean fewer
// Q-table updates per sampled access.
func TestTableVIISmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	rep := TableVII(tinyScale())[0]
	if rep.Summary["upksa_12"] < rep.Summary["upksa_36"] {
		t.Fatalf("UPKSA must decrease with FIFO size: 12 -> %v, 36 -> %v",
			rep.Summary["upksa_12"], rep.Summary["upksa_36"])
	}
}

func TestQualifyWorkloadsMPKI(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	// The paper's selection criterion: MPKI > 1 without prefetching.
	sc := tinyScale()
	sc.Measure = 60_000
	mpki := QualifyWorkloads(sc)
	if len(mpki) != len(workload.All()) {
		t.Fatalf("qualified %d workloads, want %d", len(mpki), len(workload.All()))
	}
	for name, v := range mpki {
		if v <= 1 {
			t.Errorf("%s: MPKI = %.2f, below the paper's selection criterion", name, v)
		}
	}
}
