package experiments

import (
	"fmt"
	"sort"

	"chrome/internal/metrics"
	"chrome/internal/workload"
)

// MainComparison reproduces Figures 6-8 from a single 4-core homogeneous
// SPEC sweep: per-workload weighted speedup (Fig. 6), LLC demand miss ratio
// (Fig. 7), and effective prefetch hit ratio (Fig. 8).
func MainComparison(sc Scale) []Report {
	profiles := specSubset(sc)
	schemes := DefaultSchemes()
	results := homoSweep(profiles, 4, schemes, PFDefault(), sc)
	gm := geomeanSpeedups(results, schemes)

	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	order := []string{"Hawkeye", "Glider", "Mockingjay", "CARE", "CHROME"}

	// Fig. 6: speedup per workload.
	speedTab := metrics.NewTable(append([]string{"workload"}, order...)...)
	missTab := metrics.NewTable(append([]string{"workload"}, append([]string{"LRU"}, order...)...)...)
	ephrTab := metrics.NewTable(append([]string{"workload"}, append([]string{"LRU"}, order...)...)...)
	missAvg := map[string][]float64{}
	ephrAvg := map[string][]float64{}
	for _, wname := range names {
		row := results[wname]
		base := row["LRU"]
		sRow := []string{wname}
		mRow := []string{wname, pctf(base.LLC.DemandMissRatio())}
		eRow := []string{wname, pctf(base.LLC.EPHR())}
		missAvg["LRU"] = append(missAvg["LRU"], base.LLC.DemandMissRatio())
		ephrAvg["LRU"] = append(ephrAvg["LRU"], base.LLC.EPHR())
		for _, s := range order {
			r := row[s]
			sRow = append(sRow, metrics.Pct(metrics.WeightedSpeedup(r.IPC, base.IPC)))
			mRow = append(mRow, pctf(r.LLC.DemandMissRatio()))
			eRow = append(eRow, pctf(r.LLC.EPHR()))
			missAvg[s] = append(missAvg[s], r.LLC.DemandMissRatio())
			ephrAvg[s] = append(ephrAvg[s], r.LLC.EPHR())
		}
		speedTab.AddRow(sRow...)
		missTab.AddRow(mRow...)
		ephrTab.AddRow(eRow...)
	}
	gmRow := []string{"GEOMEAN"}
	for _, s := range order {
		gmRow = append(gmRow, metrics.Pct(gm[s]))
	}
	speedTab.AddRow(gmRow...)

	fig6 := Report{
		ID:    "fig06",
		Title: "Speedup for 4-core SPEC homogeneous mixes",
		Table: speedTab,
		Summary: map[string]float64{
			"chrome_pct":     metrics.SpeedupPercent(gm["CHROME"]),
			"care_pct":       metrics.SpeedupPercent(gm["CARE"]),
			"mockingjay_pct": metrics.SpeedupPercent(gm["Mockingjay"]),
			"hawkeye_pct":    metrics.SpeedupPercent(gm["Hawkeye"]),
			"glider_pct":     metrics.SpeedupPercent(gm["Glider"]),
		},
		Notes: []string{
			"paper geomeans: CHROME +9.2%, CARE +7.6%, Mockingjay +7.6%, Hawkeye +5.7%, Glider +5.6%",
			"shape target: CHROME best on average",
		},
	}
	avg := func(m map[string][]float64) map[string]float64 {
		out := map[string]float64{}
		for k, v := range m {
			out[k+"_avg"] = metrics.Mean(v)
		}
		return out
	}
	fig7 := Report{
		ID:      "fig07",
		Title:   "LLC demand miss ratio for 4-core SPEC homogeneous mixes",
		Table:   missTab,
		Summary: avg(missAvg),
		Notes: []string{
			"paper averages: CHROME 71.1%, CARE 72.4%, Mockingjay 73.6%, Glider 75.7%, Hawkeye 75.9%",
			"shape target: CHROME lowest demand miss ratio",
		},
	}
	fig8 := Report{
		ID:      "fig08",
		Title:   "Effective prefetch hit ratio (EPHR) for 4-core SPEC homogeneous mixes",
		Table:   ephrTab,
		Summary: avg(ephrAvg),
		Notes: []string{
			"paper averages: CHROME 41.4%, Mockingjay 33.2%, Hawkeye 27.9%, Glider 23.0%, CARE 22.9%",
			"shape target: CHROME highest EPHR",
		},
	}
	return []Report{fig6, fig7, fig8}
}

// Fig9 reproduces Figure 9: bypass coverage and bypass efficiency of the
// two bypassing schemes (Mockingjay and CHROME) on 4-core SPEC mixes.
func Fig9(sc Scale) []Report {
	profiles := specSubset(sc)
	pf := PFDefault()
	schemes := []Scheme{MockingjayScheme(), CHROMEScheme(ChromeConfig())}
	tab := metrics.NewTable("workload", "MJ-coverage", "MJ-efficiency", "CHROME-coverage", "CHROME-efficiency")
	type cell struct{ coverage, efficiency float64 }
	grid := parGrid(sc, len(profiles), len(schemes), func(pi, si int) cell {
		res, probe := runMixProbed(sc.homoGens(profiles[pi], 4), 4, schemes[si], pf, sc)
		var c cell
		if incoming := res.LLC.Bypasses + res.LLC.Fills; incoming > 0 {
			c.coverage = float64(res.LLC.Bypasses) / float64(incoming)
		}
		if probe.bypassed.total > 0 {
			c.efficiency = 1 - probe.bypassed.reRequestedRatio()
		}
		return c
	})
	cov := map[string][]float64{}
	eff := map[string][]float64{}
	for pi, p := range profiles {
		row := []string{p.Name}
		for si, s := range schemes {
			c := grid[pi][si]
			cov[s.Name] = append(cov[s.Name], c.coverage)
			eff[s.Name] = append(eff[s.Name], c.efficiency)
			row = append(row, pctf(c.coverage), pctf(c.efficiency))
		}
		tab.AddRow(row...)
	}
	rep := Report{
		ID:    "fig09",
		Title: "Bypass coverage and efficiency (4-core SPEC mixes)",
		Table: tab,
		Summary: map[string]float64{
			"chrome_coverage":     metrics.Mean(cov["CHROME"]),
			"chrome_efficiency":   metrics.Mean(eff["CHROME"]),
			"mockingjay_coverage": metrics.Mean(cov["Mockingjay"]),
			"mockingjay_eff":      metrics.Mean(eff["Mockingjay"]),
		},
		Notes: []string{
			"paper: CHROME bypasses 41.5% of incoming blocks; 70.8% of bypassed blocks never required",
			"shape target: CHROME has higher coverage and efficiency than Mockingjay",
		},
	}
	return []Report{rep}
}

// heteroScale widens the instruction budget for heterogeneous mixes: each
// workload runs on a single core (instead of n copies), so the online
// agent sees roughly 1/n of the per-program training events of a
// homogeneous run and needs a proportionally longer window to converge
// (measured in the extB learning-curve experiment).
func heteroScale(sc Scale) Scale {
	sc.Warmup = sc.Warmup * 12 / 5
	sc.Measure = sc.Measure * 12 / 5
	return sc
}

// Fig10 reproduces Figure 10: weighted speedup over LRU for the 4-core
// heterogeneous mixes, sorted ascending by CHROME's speedup.
func Fig10(sc Scale) []Report {
	sc = heteroScale(sc)
	mixes := workload.HeterogeneousMixes(4, sc.HeteroMixes4, sc.Seed)
	schemes := []Scheme{LRUScheme(), HawkeyeScheme(), GliderScheme(), MockingjayScheme(), CHROMEScheme(ChromeConfig())}
	pf := PFDefault()
	type mixRow struct {
		name string
		ws   map[string]float64
	}
	var rows []mixRow
	bestCount := map[string]int{}
	for mi, ws := range mixSweep(mixes, 4, schemes, pf, sc) {
		best, bestV := "", 0.0
		for _, s := range schemes[1:] {
			if ws[s.Name] > bestV {
				best, bestV = s.Name, ws[s.Name]
			}
		}
		bestCount[best]++
		rows = append(rows, mixRow{name: mixes[mi].Name, ws: ws})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ws["CHROME"] < rows[j].ws["CHROME"] })

	tab := metrics.NewTable("mix", "Hawkeye", "Glider", "Mockingjay", "CHROME")
	gms := map[string][]float64{}
	for _, r := range rows {
		tab.AddRow(r.name,
			metrics.Pct(r.ws["Hawkeye"]), metrics.Pct(r.ws["Glider"]),
			metrics.Pct(r.ws["Mockingjay"]), metrics.Pct(r.ws["CHROME"]))
		for k, v := range r.ws {
			gms[k] = append(gms[k], v)
		}
	}
	summary := map[string]float64{"chrome_best_mixes": float64(bestCount["CHROME"]), "mixes": float64(len(rows))}
	for _, s := range schemes[1:] {
		summary[s.Name+"_geomean_pct"] = metrics.SpeedupPercent(metrics.GeoMean(gms[s.Name]))
	}
	rep := Report{
		ID:      "fig10",
		Title:   fmt.Sprintf("Weighted speedup on 4-core heterogeneous mixes (%d mixes, sorted by CHROME)", len(rows)),
		Table:   tab,
		Summary: summary,
		Notes: []string{
			"paper: CHROME +9.6% geomean vs Hawkeye +6.7%, Glider +7.4%, Mockingjay +8.6%; best in 119/150 mixes",
			"shape target: CHROME best geomean and best in the majority of mixes",
		},
	}
	return []Report{rep}
}
