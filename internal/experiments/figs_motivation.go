package experiments

import (
	"fmt"
	"sort"

	"chrome/internal/metrics"
	"chrome/internal/sim"
	"chrome/internal/workload"
)

// capProfiles picks up to n profiles evenly spread across the slice (n <= 0
// keeps all).
func capProfiles(ps []workload.Profile, n int) []workload.Profile {
	if n <= 0 || n >= len(ps) {
		return ps
	}
	out := make([]workload.Profile, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ps[i*len(ps)/n])
	}
	return out
}

// homoSweep runs all schemes over homogeneous mixes of each profile and
// returns results[profile][scheme]. The profiles x schemes grid runs on
// the Scale's worker pool; every cell builds its own system and
// generators, and the result maps are keyed by grid position, so the
// sweep is deterministic at any parallelism.
func homoSweep(profiles []workload.Profile, cores int, schemes []Scheme, pf PrefetchConfig, sc Scale) map[string]map[string]sim.Result {
	grid := parGrid(sc, len(profiles), len(schemes), func(pi, si int) sim.Result {
		return runMix(sc.homoGens(profiles[pi], cores), cores, schemes[si], pf, sc)
	})
	out := make(map[string]map[string]sim.Result, len(profiles))
	for pi, p := range profiles {
		row := make(map[string]sim.Result, len(schemes))
		for si, s := range schemes {
			row[s.Name] = grid[pi][si]
		}
		out[p.Name] = row
	}
	return out
}

// geomeanOverLRU runs one scheme on a 4-core homogeneous mix of each
// profile and returns its geomean weighted speedup over the profiles' "LRU"
// results in base, a homoSweep over the same profiles.
func geomeanOverLRU(profiles []workload.Profile, base map[string]map[string]sim.Result, s Scheme, pf PrefetchConfig, sc Scale) float64 {
	ws := parMap(sc, len(profiles), func(i int) float64 {
		r := runMix(sc.homoGens(profiles[i], 4), 4, s, pf, sc)
		return metrics.WeightedSpeedup(r.IPC, base[profiles[i].Name]["LRU"].IPC)
	})
	return metrics.GeoMean(ws)
}

// geomeanSpeedups reduces a homoSweep to scheme -> geomean weighted speedup
// over the "LRU" scheme.
func geomeanSpeedups(results map[string]map[string]sim.Result, schemes []Scheme) map[string]float64 {
	// Fold profiles in sorted order: float reductions are order-sensitive at
	// the ulp level, and the rendered output must be byte-identical across
	// runs (TestReportDigests pins the rendered reports).
	profiles := make([]string, 0, len(results))
	for name := range results {
		profiles = append(profiles, name)
	}
	sort.Strings(profiles)
	per := map[string][]float64{}
	for _, pname := range profiles {
		row := results[pname]
		base := row["LRU"]
		for name, r := range row {
			per[name] = append(per[name], metrics.WeightedSpeedup(r.IPC, base.IPC))
		}
	}
	out := make(map[string]float64, len(per))
	for name, xs := range per {
		out[name] = metrics.GeoMean(xs)
	}
	return out
}

// Fig1 reproduces Figure 1: performance improvement of the SOTA schemes
// over LRU on a 16-core system with homogeneous SPEC workload mixes.
func Fig1(sc Scale) []Report {
	profiles := representativeProfiles(pick(sc.Profiles, 8))
	schemes := DefaultSchemes()
	results := homoSweep(profiles, 16, schemes, PFDefault(), sc)
	gm := geomeanSpeedups(results, schemes)

	tab := metrics.NewTable("scheme", "speedup-vs-LRU", "paper")
	paper := map[string]string{
		"Hawkeye": "+6.8%", "Glider": "+6.2%", "Mockingjay": "+8.2%",
		"CARE": "+10.2%", "CHROME": "+12.9%",
	}
	for _, s := range schemes[1:] {
		tab.AddRow(s.Name, metrics.Pct(gm[s.Name]), paper[s.Name])
	}
	rep := Report{
		ID:    "fig01",
		Title: "SOTA comparison on a 16-core system (homogeneous SPEC mixes)",
		Table: tab,
		Summary: map[string]float64{
			"chrome_speedup_pct": metrics.SpeedupPercent(gm["CHROME"]),
			"care_speedup_pct":   metrics.SpeedupPercent(gm["CARE"]),
		},
		Notes: []string{
			"shape target: CHROME best, CARE second (paper Fig. 1)",
			fmt.Sprintf("%d profiles, %d+%d instr/core", len(profiles), sc.Warmup, sc.Measure),
		},
	}
	return []Report{rep}
}

// pick returns override when positive, else def.
func pick(override, def int) int {
	if override > 0 && override < def {
		return override
	}
	return def
}

// Fig2 reproduces Figure 2: the fraction of LLC blocks evicted unused under
// Glider on a 4-core system, split into later-re-requested vs never, and
// the prefetched share of the unused evictions.
func Fig2(sc Scale) []Report {
	profiles := representativeProfiles(pick(sc.Profiles, 8))
	pf := PFDefault()
	tab := metrics.NewTable("workload", "unused/evicted", "re-requested-later", "never-again", "prefetch-share-of-unused")
	type cell struct {
		unused, pfShare, reReq float64
		ok                     bool
	}
	cells := parMap(sc, len(profiles), func(i int) cell {
		res, probe := runMixProbed(sc.homoGens(profiles[i], 4), 4, GliderScheme(), pf, sc)
		st := res.LLC
		if st.Evictions == 0 {
			return cell{}
		}
		c := cell{unused: float64(st.EvictionsUnused) / float64(st.Evictions), ok: true}
		if st.EvictionsUnused > 0 {
			c.pfShare = float64(st.EvictionsUnusedPF) / float64(st.EvictionsUnused)
		}
		c.reReq = probe.evicted.reRequestedRatio()
		return c
	})
	var unusedR, pfShareR, reReqR []float64
	for i, c := range cells {
		if !c.ok {
			continue
		}
		unusedR = append(unusedR, c.unused)
		pfShareR = append(pfShareR, c.pfShare)
		reReqR = append(reReqR, c.reReq)
		tab.AddRowf(profiles[i].Name, pctf(c.unused), pctf(c.unused*c.reReq), pctf(c.unused*(1-c.reReq)), pctf(c.pfShare))
	}
	rep := Report{
		ID:    "fig02",
		Title: "Unused LLC evictions under Glider (4-core)",
		Table: tab,
		Summary: map[string]float64{
			"avg_unused_fraction":   metrics.Mean(unusedR),
			"avg_prefetch_share":    metrics.Mean(pfShareR),
			"avg_rerequested_ratio": metrics.Mean(reReqR),
		},
		Notes: []string{
			"paper: 83.7% of evictions unused (28.0% re-requested later, 55.7% never); 70.0% of unused from prefetching",
			"shape target: majority of evictions unused; majority of unused evictions prefetched",
		},
	}
	return []Report{rep}
}

func pctf(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// fig3Workloads are the eight representative workloads of Figure 3.
var fig3Workloads = []string{"soplex", "wrf", "mcf", "xalancbmk", "omnetpp", "gcc", "libquantum", "cc-ur"}

// Fig3 reproduces Figure 3: speedup of the static SOTA schemes over LRU on
// a 4-core system under two different prefetcher configurations, showing
// the adaptability gap CHROME motivates (§III-B).
func Fig3(sc Scale) []Report {
	schemes := []Scheme{LRUScheme(), HawkeyeScheme(), GliderScheme(), MockingjayScheme()}
	var profiles []workload.Profile
	for _, name := range fig3Workloads {
		if p, err := workload.ByName(name); err == nil {
			profiles = append(profiles, p)
		}
	}
	var reports []Report
	for i, pf := range []PrefetchConfig{PFDefault(), PFStrideStreamer()} {
		grid := parGrid(sc, len(profiles), len(schemes), func(pi, si int) sim.Result {
			return runMix(sc.homoGens(profiles[pi], 4), 4, schemes[si], pf, sc)
		})
		tab := metrics.NewTable("workload", "Hawkeye", "Glider", "Mockingjay")
		var mockWins, rows int
		for pi, p := range profiles {
			base := grid[pi][0]
			row := []string{p.Name}
			var best float64
			var bestName string
			for si, s := range schemes[1:] {
				ws := metrics.WeightedSpeedup(grid[pi][si+1].IPC, base.IPC)
				row = append(row, metrics.Pct(ws))
				if ws > best {
					best, bestName = ws, s.Name
				}
			}
			if bestName == "Mockingjay" {
				mockWins++
			}
			rows++
			tab.AddRow(row...)
		}
		reports = append(reports, Report{
			ID:    fmt.Sprintf("fig03%c", 'a'+i),
			Title: fmt.Sprintf("Static-scheme speedup over LRU, 4-core, %s", pf.Name),
			Table: tab,
			Summary: map[string]float64{
				"mockingjay_wins": float64(mockWins),
				"workloads":       float64(rows),
			},
			Notes: []string{
				"shape target: Mockingjay's rank is inconsistent across workloads and flips between prefetcher configs (paper §III-B)",
			},
		})
	}
	return reports
}
