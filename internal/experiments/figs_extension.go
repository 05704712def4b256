package experiments

import (
	"fmt"
	"sort"

	"chrome/internal/chrome"
	"chrome/internal/mem"
	"chrome/internal/metrics"
	"chrome/internal/workload"
)

// FeatureStudy is an extension of Fig. 15: it evaluates CHROME with
// candidate 2-feature state vectors drawn from the paper's Table I feature
// catalog (§IV-A describes this feature-selection process; the paper
// reports only the winning pair). The study reproduces the rationale for
// the {PC signature, page number} choice: a control-flow feature paired
// with a data-access feature should win.
func FeatureStudy(sc Scale) []Report {
	profiles := representativeProfiles(pick(sc.Profiles, 6))
	pf := PFDefault()
	baseResults := homoSweep(profiles, 4, []Scheme{LRUScheme()}, pf, sc)

	candidates := []struct {
		name  string
		kinds []chrome.FeatureKind
	}{
		{"PC+PN (paper)", []chrome.FeatureKind{chrome.FeatPCSignature, chrome.FeatPageNumber}},
		{"PC+delta", []chrome.FeatureKind{chrome.FeatPCSignature, chrome.FeatDelta}},
		{"PC+page-off", []chrome.FeatureKind{chrome.FeatPCSignature, chrome.FeatPageOffset}},
		{"PC+PC-hist4", []chrome.FeatureKind{chrome.FeatPCSignature, chrome.FeatPCHistory}},
		{"PN+delta-hist4", []chrome.FeatureKind{chrome.FeatPageNumber, chrome.FeatDeltaHistory}},
		{"addr+PC", []chrome.FeatureKind{chrome.FeatAddress, chrome.FeatPCSignature}},
		{"PC+page (combo)", []chrome.FeatureKind{chrome.FeatPCPage, chrome.FeatPageNumber}},
		{"PC+PN+delta (3D)", []chrome.FeatureKind{chrome.FeatPCSignature, chrome.FeatPageNumber, chrome.FeatDelta}},
	}

	tab := metrics.NewTable("state vector", "speedup")
	summary := map[string]float64{}
	bestName, bestGM := "", 0.0
	for _, cand := range candidates {
		cfg := ChromeConfig()
		cfg.StateFeatures = cand.kinds
		gm := geomeanOverLRU(profiles, baseResults, CHROMEScheme(cfg), pf, sc)
		tab.AddRow(cand.name, metrics.Pct(gm))
		summary[cand.name+"_pct"] = metrics.SpeedupPercent(gm)
		if gm > bestGM {
			bestGM, bestName = gm, cand.name
		}
	}
	summary["candidates"] = float64(len(candidates))
	rep := Report{
		ID:      "extA",
		Title:   "Extension: Table I feature-selection study (4-core SPEC)",
		Table:   tab,
		Summary: summary,
		Notes: []string{
			"extension of Fig. 15: candidate state vectors from the paper's Table I catalog",
			fmt.Sprintf("best candidate at this scale: %s", bestName),
			"shape target: control-flow + data-access pairs competitive; the paper's PC+PN near the top",
		},
	}
	return []Report{rep}
}

// LearningCurve is an extension experiment recording CHROME's weighted
// speedup as a function of the measured instruction budget. It documents
// the online agent's convergence (and justifies the FullScale budget used
// for the recorded EXPERIMENTS.md results — see DESIGN.md §5).
func LearningCurve(sc Scale) []Report {
	profiles := []string{"gcc", "xalancbmk", "pr-tw"}
	pf := PFDefault()
	budgets := []mem.Instr{50_000, 120_000, 250_000, 500_000}
	if sc.Measure < 500_000 {
		budgets = []mem.Instr{30_000, 80_000, 160_000}
	}

	var valid []workload.Profile
	for _, name := range profiles {
		if p, err := workload.ByName(name); err == nil {
			valid = append(valid, p)
		}
	}
	// Each (profile, budget) cell runs its LRU baseline and CHROME back to
	// back; the grid parallelizes across cells.
	grid := parGrid(sc, len(valid), len(budgets), func(pi, bi int) float64 {
		runSc := sc
		runSc.Warmup = budgets[bi] / 5
		runSc.Measure = budgets[bi]
		p := valid[pi]
		base := runMix(runSc.homoGens(p, 4), 4, LRUScheme(), pf, runSc)
		res := runMix(runSc.homoGens(p, 4), 4, CHROMEScheme(ChromeConfig()), pf, runSc)
		return metrics.WeightedSpeedup(res.IPC, base.IPC)
	})
	tab := metrics.NewTable(append([]string{"workload"}, budgetLabels(budgets)...)...)
	summary := map[string]float64{}
	for pi, p := range valid {
		row := []string{p.Name}
		for bi, budget := range budgets {
			ws := grid[pi][bi]
			row = append(row, metrics.Pct(ws))
			summary[fmt.Sprintf("%s_%dk_pct", p.Name, budget/1000)] = metrics.SpeedupPercent(ws)
		}
		tab.AddRow(row...)
	}
	rep := Report{
		ID:      "extB",
		Title:   "Extension: CHROME learning curve vs measured instruction budget",
		Table:   tab,
		Summary: summary,
		Notes: []string{
			"the online agent's advantage grows with budget until convergence",
			"shape target: speedup non-decreasing (within noise) in the budget",
		},
	}
	return []Report{rep}
}

func budgetLabels(budgets []mem.Instr) []string {
	out := make([]string, len(budgets))
	for i, b := range budgets {
		out[i] = fmt.Sprintf("%dK instr", b/1000)
	}
	return out
}

// PolicyRoster is an extension experiment comparing every implemented LLC
// policy — the paper's five plus the related-work baselines SHiP++, PACMan
// and DRRIP (paper §VIII) — on representative 4-core mixes.
func PolicyRoster(sc Scale) []Report {
	profiles := representativeProfiles(pick(sc.Profiles, 6))
	pf := PFDefault()
	schemes := []Scheme{
		LRUScheme(), DRRIPScheme(), PACManScheme(), SHiPPPScheme(),
		HawkeyeScheme(), GliderScheme(), MockingjayScheme(), CAREScheme(),
		CHROMEScheme(NChromeConfig()), CHROMEScheme(ChromeConfig()),
	}
	results := homoSweep(profiles, 4, schemes, pf, sc)
	gm := geomeanSpeedups(results, schemes)

	tab := metrics.NewTable("policy", "geomean speedup", "avg miss ratio", "avg EPHR")
	summary := map[string]float64{}
	// Sorted profile order keeps the float means byte-stable across runs.
	profileNames := make([]string, 0, len(results))
	for name := range results {
		profileNames = append(profileNames, name)
	}
	sort.Strings(profileNames)
	for _, s := range schemes[1:] {
		var miss, ephr []float64
		for _, pname := range profileNames {
			st := results[pname][s.Name].LLC
			miss = append(miss, st.DemandMissRatio())
			ephr = append(ephr, st.EPHR())
		}
		tab.AddRow(s.Name, metrics.Pct(gm[s.Name]), pctf(metrics.Mean(miss)), pctf(metrics.Mean(ephr)))
		summary[s.Name+"_pct"] = metrics.SpeedupPercent(gm[s.Name])
	}
	rep := Report{
		ID:      "extC",
		Title:   "Extension: full policy roster (4-core SPEC, incl. §VIII related work)",
		Table:   tab,
		Summary: summary,
		Notes: []string{
			"adds the related-work baselines SHiP++, PACMan, DRRIP to the paper's comparison",
			"shape target: CHROME best; N-CHROME close behind; RRIP-family near LRU",
		},
	}
	return []Report{rep}
}
