package experiments

import (
	"fmt"

	"chrome/internal/metrics"
	"chrome/internal/workload"
)

// Fig11 reproduces Figure 11: speedup over LRU on 4-, 8-, and 16-core
// systems for homogeneous and heterogeneous SPEC mixes.
func Fig11(sc Scale) []Report {
	schemes := DefaultSchemes()
	pf := PFDefault()
	homoProfiles := representativeProfiles(pick(sc.Profiles, 6))
	order := []string{"Hawkeye", "Glider", "Mockingjay", "CARE", "CHROME"}

	tab := metrics.NewTable(append([]string{"config"}, order...)...)
	summary := map[string]float64{}

	for _, cores := range []int{4, 8, 16} {
		results := homoSweep(homoProfiles, cores, schemes, pf, sc)
		gm := geomeanSpeedups(results, schemes)
		row := []string{fmt.Sprintf("homo-%dc", cores)}
		for _, s := range order {
			row = append(row, metrics.Pct(gm[s]))
		}
		tab.AddRow(row...)
		summary[fmt.Sprintf("chrome_homo_%dc_pct", cores)] = metrics.SpeedupPercent(gm["CHROME"])
		summary[fmt.Sprintf("care_homo_%dc_pct", cores)] = metrics.SpeedupPercent(gm["CARE"])
	}

	// Fig. 11's hetero section sweeps three core counts; cap the per-count
	// mix totals so the sweep stays tractable at full scale (Fig. 10 is the
	// dedicated, larger heterogeneous study).
	heteroCounts := map[int]int{
		4:  minInt(sc.HeteroMixes4, 8),
		8:  minInt(sc.HeteroMixes8, 3),
		16: minInt(sc.HeteroMixes16, 2),
	}
	hsc := heteroScale(sc)
	for _, cores := range []int{4, 8, 16} {
		mixes := workload.HeterogeneousMixes(cores, heteroCounts[cores], sc.Seed)
		gms := map[string][]float64{}
		for _, ws := range mixSweep(mixes, cores, schemes, pf, hsc) {
			for k, v := range ws {
				gms[k] = append(gms[k], v)
			}
		}
		row := []string{fmt.Sprintf("hetero-%dc", cores)}
		for _, s := range order {
			row = append(row, metrics.Pct(metrics.GeoMean(gms[s])))
		}
		tab.AddRow(row...)
		summary[fmt.Sprintf("chrome_hetero_%dc_pct", cores)] = metrics.SpeedupPercent(metrics.GeoMean(gms["CHROME"]))
	}

	rep := Report{
		ID:      "fig11",
		Title:   "Scalability: speedup over LRU at 4/8/16 cores (SPEC)",
		Table:   tab,
		Summary: summary,
		Notes: []string{
			"paper homo: CHROME +9.2/+10.6/+12.9 at 4/8/16 cores; hetero: +9.6/+12.9/+14.4",
			"shape target: CHROME best everywhere; its margin grows with core count",
		},
	}
	return []Report{rep}
}

// Fig11Ext extends Figure 11 past the paper's largest system: speedup over
// LRU on 16-, 32-, and 64-core homogeneous SPEC mixes. The scheme set is
// trimmed to the concurrency-aware contenders (CARE, CHROME) so the
// heavier core counts stay tractable. No paper counterpart: Fig. 11 stops
// at 16 cores.
func Fig11Ext(sc Scale) []Report {
	schemes := []Scheme{LRUScheme(), CAREScheme(), CHROMEScheme(ChromeConfig())}
	pf := PFDefault()
	order := []string{"CARE", "CHROME"}

	tab := metrics.NewTable(append([]string{"config"}, order...)...)
	summary := map[string]float64{}
	for _, cores := range []int{16, 32, 64} {
		profiles := representativeProfiles(pick(sc.Profiles, 4))
		if cores >= 32 {
			// Bound the widest systems: simulated work grows linearly with
			// the core count at a fixed per-core budget.
			profiles = capProfiles(profiles, 3)
		}
		results := homoSweep(profiles, cores, schemes, pf, sc)
		gm := geomeanSpeedups(results, schemes)
		row := []string{fmt.Sprintf("homo-%dc", cores)}
		for _, s := range order {
			row = append(row, metrics.Pct(gm[s]))
		}
		tab.AddRow(row...)
		summary[fmt.Sprintf("chrome_homo_%dc_pct", cores)] = metrics.SpeedupPercent(gm["CHROME"])
		summary[fmt.Sprintf("care_homo_%dc_pct", cores)] = metrics.SpeedupPercent(gm["CARE"])
	}

	rep := Report{
		ID:      "fig11ext",
		Title:   "Extension: scalability beyond the paper, 16/32/64-core SPEC",
		Table:   tab,
		Summary: summary,
		Notes: []string{
			"no paper counterpart: Fig. 11 stops at 16 cores; this extends the sweep to 32/64",
			"shape target: CHROME's margin over LRU persists as sharing pressure grows",
		},
	}
	return []Report{rep}
}

// Fig12 reproduces Figure 12: CHROME vs N-CHROME (no concurrency-aware
// C-AMAT feedback) on 4/8/16-core homogeneous SPEC mixes.
func Fig12(sc Scale) []Report {
	schemes := []Scheme{LRUScheme(), CHROMEScheme(NChromeConfig()), CHROMEScheme(ChromeConfig())}
	pf := PFDefault()
	profiles := representativeProfiles(pick(sc.Profiles, 8))

	tab := metrics.NewTable("cores", "N-CHROME", "CHROME", "concurrency-gain")
	summary := map[string]float64{}
	for _, cores := range []int{4, 8, 16} {
		results := homoSweep(profiles, cores, schemes, pf, sc)
		gm := geomeanSpeedups(results, schemes)
		tab.AddRow(fmt.Sprintf("%d", cores),
			metrics.Pct(gm["N-CHROME"]), metrics.Pct(gm["CHROME"]),
			fmt.Sprintf("%+.1fpp", metrics.SpeedupPercent(gm["CHROME"])-metrics.SpeedupPercent(gm["N-CHROME"])))
		summary[fmt.Sprintf("chrome_%dc_pct", cores)] = metrics.SpeedupPercent(gm["CHROME"])
		summary[fmt.Sprintf("nchrome_%dc_pct", cores)] = metrics.SpeedupPercent(gm["N-CHROME"])
	}
	rep := Report{
		ID:      "fig12",
		Title:   "CHROME vs N-CHROME (no C-AMAT feedback), homogeneous SPEC",
		Table:   tab,
		Summary: summary,
		Notes: []string{
			"paper: CHROME +9.2/+10.6/+12.9 vs N-CHROME +8.3/+9.1/+10.0 at 4/8/16 cores",
			"shape target: CHROME >= N-CHROME, gap grows with core count",
		},
	}
	return []Report{rep}
}

// Fig13 reproduces Figure 13: speedup on the GAP workloads (unseen during
// hyper-parameter tuning) at 4/8/16 cores.
func Fig13(sc Scale) []Report {
	schemes := DefaultSchemes()
	pf := PFDefault()
	order := []string{"Hawkeye", "Glider", "Mockingjay", "CARE", "CHROME"}
	tab := metrics.NewTable(append([]string{"config"}, order...)...)
	summary := map[string]float64{}
	for _, cores := range []int{4, 8, 16} {
		profiles := gapSubset(sc)
		if cores > 4 {
			// Bound the heavier 8/16-core sweeps to one dataset per kernel.
			profiles = capProfiles(profiles, 5)
		}
		results := homoSweep(profiles, cores, schemes, pf, sc)
		gm := geomeanSpeedups(results, schemes)
		row := []string{fmt.Sprintf("gap-%dc", cores)}
		for _, s := range order {
			row = append(row, metrics.Pct(gm[s]))
		}
		tab.AddRow(row...)
		summary[fmt.Sprintf("chrome_%dc_pct", cores)] = metrics.SpeedupPercent(gm["CHROME"])
		summary[fmt.Sprintf("care_%dc_pct", cores)] = metrics.SpeedupPercent(gm["CARE"])
	}
	rep := Report{
		ID:      "fig13",
		Title:   "GAP (unseen) workloads at 4/8/16 cores",
		Table:   tab,
		Summary: summary,
		Notes: []string{
			"paper: CHROME +9.5/+12.1/+16.0 at 4/8/16 cores; CARE second at 8/16",
			"shape target: CHROME best on unseen workloads; CARE competitive second",
		},
	}
	return []Report{rep}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
