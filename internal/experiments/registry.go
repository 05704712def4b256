package experiments

import (
	"fmt"
	"sort"

	"chrome/internal/cache"
	"chrome/internal/chrome"
	"chrome/internal/mem"
	"chrome/internal/sim"
	"chrome/internal/trace"
	"chrome/internal/workload"
)

// runMixWithAgent runs a CHROME configuration on a mix and additionally
// returns the agent's UPKSA (Table VII metric).
func runMixWithAgent(gens []trace.Generator, cores int, ccfg chrome.Config, pf PrefetchConfig, sc Scale) (sim.Result, float64) {
	var ag *chrome.Agent
	scheme := Scheme{Name: "CHROME", Factory: func(sets, ways, c int, obstructed func(mem.CoreID) bool) cache.Policy {
		ag = chrome.New(ccfg, sets, ways)
		ag.Obstructed = obstructed
		return ag
	}}
	res := runMix(gens, cores, scheme, pf, sc)
	return res, ag.UPKSA()
}

// Runner couples an experiment identifier with its run function.
type Runner struct {
	// ID is the registry key ("fig06", "tab07", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Run executes the experiment at the given scale. A single runner may
	// produce several reports (e.g. the shared Fig. 6/7/8 sweep).
	Run func(Scale) []Report
}

// Runners returns every experiment runner, in paper order.
func Runners() []Runner {
	return []Runner{
		{"fig01", "16-core SOTA comparison", Fig1},
		{"fig02", "Unused LLC evictions under Glider", Fig2},
		{"fig03", "Static-scheme adaptability across prefetchers", Fig3},
		{"fig06-08", "4-core SPEC speedup, miss ratio, EPHR", MainComparison},
		{"fig09", "Bypass coverage and efficiency", Fig9},
		{"fig10", "4-core heterogeneous mixes", Fig10},
		{"fig11", "Scalability 4/8/16 cores", Fig11},
		{"fig11ext", "Extension: scalability at 16/32/64 cores", Fig11Ext},
		{"fig12", "CHROME vs N-CHROME", Fig12},
		{"fig13", "GAP unseen workloads", Fig13},
		{"fig14", "Alternative prefetching schemes", Fig14},
		{"fig15", "State-feature ablation", Fig15},
		{"fig16", "Hyper-parameter sensitivity", Fig16},
		{"tab03-04", "Storage overhead accounting", TablesIIIandIV},
		{"tab07", "EQ FIFO size sweep", TableVII},
		{"extA", "Extension: Table I feature-selection study", FeatureStudy},
		{"extB", "Extension: learning curve vs budget", LearningCurve},
		{"extC", "Extension: full policy roster", PolicyRoster},
	}
}

// RunnerByID returns the runner with the given ID.
func RunnerByID(id string) (Runner, error) {
	for _, r := range Runners() {
		if r.ID == id {
			return r, nil
		}
	}
	ids := make([]string, 0)
	for _, r := range Runners() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return Runner{}, fmt.Errorf("experiments: unknown runner %q (have %v)", id, ids)
}

// QualifyWorkloads verifies the paper's workload-selection criterion: every
// profile must have LLC MPKI > 1 on the baseline system without
// prefetching (§VI). It returns name -> MPKI.
func QualifyWorkloads(sc Scale) map[string]float64 {
	ps := workload.All()
	mpki := parMap(sc, len(ps), func(i int) float64 {
		res := runMix(sc.homoGens(ps[i], 1), 1, LRUScheme(), PFNone(), sc)
		return res.MPKI()
	})
	out := make(map[string]float64, len(ps))
	for i, p := range ps {
		out[p.Name] = mpki[i]
	}
	return out
}
