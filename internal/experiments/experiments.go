// Package experiments contains one runner per table and figure of the
// CHROME paper's evaluation (§VII; see DESIGN.md §3 for the index). Each
// runner builds the workload mixes, runs every compared policy on an
// identical system, and reports the paper's metric next to the paper's
// reported value so EXPERIMENTS.md can record paper-vs-measured shape.
package experiments

import (
	"fmt"
	"sort"

	"chrome/internal/cache"
	"chrome/internal/chrome"
	"chrome/internal/mem"
	"chrome/internal/metrics"
	"chrome/internal/policy"
	"chrome/internal/prefetch"
	"chrome/internal/sim"
	"chrome/internal/trace"
	"chrome/internal/workload"
)

// Scale controls how much simulation each runner performs. The paper warms
// 50M and measures 200M instructions per core; these budgets scale that
// down while preserving warmup:measure proportions.
type Scale struct {
	// Warmup and Measure are per-core instruction budgets.
	Warmup, Measure mem.Instr
	// Profiles bounds how many profiles per suite the per-workload figures
	// sweep (0 = all).
	Profiles int
	// HeteroMixes4/8/16 are the heterogeneous mix counts (paper: 150/25/25).
	HeteroMixes4, HeteroMixes8, HeteroMixes16 int
	// Seed drives mix selection and agent exploration.
	Seed uint64
	// Parallelism bounds the worker pool running independent simulation
	// cells (0 = one worker per CPU, 1 = fully sequential). Results are
	// merged deterministically, so the output is byte-identical at any
	// setting.
	Parallelism int
	// Sampling selects the measurement strategy: "" or "none" simulates the
	// full warmup+measure budget exactly (byte-identical to before the knob
	// existed); "simpoint" profiles the recordings in fixed-instruction
	// intervals, clusters the measurement window, and simulates only
	// weighted representative intervals (DESIGN.md §10).
	Sampling string
	// SPInterval is the per-core instruction length of each profiled
	// interval (0 = DefaultSPInterval). Simpoint sampling only.
	SPInterval mem.Instr
	// SPWarmup is the truncated warmup replayed immediately before each
	// representative interval (0 = DefaultSPWarmup). Simpoint sampling only.
	SPWarmup mem.Instr
	// SPClusters caps how many representatives k-means selects per cell
	// (0 = DefaultSPClusters). Simpoint sampling only.
	SPClusters int
}

// Validate checks the sampling selection as a whole: the mode selector and
// its knobs, including their cross-constraints. CLI front ends call it
// once after flag parsing so a bad value dies with a friendly message
// instead of panicking deep in a runner.
func (sc Scale) Validate() error {
	switch sc.Sampling {
	case "", "none":
		if sc.SPInterval != 0 || sc.SPWarmup != 0 || sc.SPClusters != 0 {
			return fmt.Errorf("interval sampling knobs (-spinterval/-spwarmup/-spclusters) require -sampling simpoint (have %q)", sc.Sampling)
		}
	case "simpoint":
		if sc.SPClusters < 0 {
			return fmt.Errorf("cluster count %d is negative (valid: 0 = default %d, or a positive representative count)", sc.SPClusters, DefaultSPClusters)
		}
		interval, warmup, _ := sc.samplingParams()
		if interval > sc.Measure {
			return fmt.Errorf("sampling interval %d exceeds the measure budget %d (a representative interval must fit the measurement window)", interval, sc.Measure)
		}
		if warmup > sc.Warmup {
			return fmt.Errorf("sampling warmup %d exceeds the full warmup budget %d (the truncated warmup must be a subset of the exact run's)", warmup, sc.Warmup)
		}
	default:
		return fmt.Errorf("unknown sampling mode %q (valid modes: none, simpoint)", sc.Sampling)
	}
	return nil
}

// budget is the per-core instruction window a recording must cover for a
// run at this scale.
func (sc Scale) budget() mem.Instr { return sc.Warmup + sc.Measure }

// homoGens builds the per-core generators of a homogeneous mix: replayers
// of one frozen recording per workload, shared by every scheme in a sweep
// (DESIGN.md §8).
func (sc Scale) homoGens(p workload.Profile, cores int) []trace.Generator {
	return workload.HomogeneousReplayMix(p, cores, sc.budget())
}

// mixGens builds a mix's per-core generators over shared frozen
// recordings.
func (sc Scale) mixGens(m workload.Mix) []trace.Generator {
	return m.ReplayGenerators(sc.budget())
}

// QuickScale is sized for tests and benchmarks (seconds per figure). At
// this scale the RL agent is still early in its learning curve, so only
// weak shape properties should be asserted.
func QuickScale() Scale {
	return Scale{
		Warmup: 30_000, Measure: 120_000,
		Profiles:     4,
		HeteroMixes4: 8, HeteroMixes8: 4, HeteroMixes16: 3,
		Seed: 1,
	}
}

// FullScale is sized for the recorded EXPERIMENTS.md run (tens of minutes
// total). 500K measured instructions per core is where the scaled agent's
// learning curve has converged (see EXPERIMENTS.md, budget note); mix
// counts are reduced from the paper's 150/25/25 to keep the suite's total
// runtime tractable.
func FullScale() Scale {
	return Scale{
		Warmup: 100_000, Measure: 500_000,
		Profiles:     0,
		HeteroMixes4: 20, HeteroMixes8: 4, HeteroMixes16: 3,
		Seed: 1,
	}
}

// PrefetchConfig names a multi-level prefetching scheme (§VI, §VII-E).
type PrefetchConfig struct {
	Name string
	L1   sim.PrefetcherFactory
	L2   sim.PrefetcherFactory
}

// PFDefault is the CRC-2 default: next-line at L1, stride at L2.
func PFDefault() PrefetchConfig {
	return PrefetchConfig{
		Name: "nextline-L1/stride-L2",
		L1:   func() prefetch.Prefetcher { return prefetch.NewNextLine(1) },
		L2:   func() prefetch.Prefetcher { return prefetch.NewStride(2) },
	}
}

// PFStrideStreamer is the commercial-Intel-style pair: stride at L1,
// streamer at L2 (§VII-E config 1).
func PFStrideStreamer() PrefetchConfig {
	return PrefetchConfig{
		Name: "stride-L1/streamer-L2",
		L1:   func() prefetch.Prefetcher { return prefetch.NewStride(2) },
		L2:   func() prefetch.Prefetcher { return prefetch.NewStreamer(4) },
	}
}

// PFIPCP is the DPC-3 winner IPCP at both levels (§VII-E config 2).
func PFIPCP() PrefetchConfig {
	return PrefetchConfig{
		Name: "IPCP",
		L1:   func() prefetch.Prefetcher { return prefetch.NewIPCP(2) },
		L2:   func() prefetch.Prefetcher { return prefetch.NewIPCP(3) },
	}
}

// PFNone disables prefetching (workload-qualification runs).
func PFNone() PrefetchConfig {
	return PrefetchConfig{Name: "no-prefetch"}
}

// scaledSampledSets is the sampled-set count used for the scaled
// experiment runs. The paper's hardware constant is 64 sampled sets over
// 200M-instruction windows; with the scaled instruction budgets the
// sampling density is scaled up proportionally so the learned policies see
// an equivalent number of training events per run (DESIGN.md §4.3; the
// Table III overhead accounting keeps the paper's 64).
const scaledSampledSets = 256

// Scheme couples a display name with an LLC policy factory.
type Scheme struct {
	Name    string
	Factory sim.PolicyFactory
}

// LRUScheme returns the LRU baseline.
func LRUScheme() Scheme {
	return Scheme{Name: "LRU", Factory: func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy {
		return policy.NewLRU()
	}}
}

// HawkeyeScheme returns the Hawkeye comparison scheme.
func HawkeyeScheme() Scheme {
	return Scheme{Name: "Hawkeye", Factory: func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy {
		return policy.NewHawkeye(sets, ways, scaledSampledSets)
	}}
}

// GliderScheme returns the Glider comparison scheme.
func GliderScheme() Scheme {
	return Scheme{Name: "Glider", Factory: func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy {
		return policy.NewGlider(sets, ways, cores, scaledSampledSets)
	}}
}

// MockingjayScheme returns the Mockingjay comparison scheme.
func MockingjayScheme() Scheme {
	return Scheme{Name: "Mockingjay", Factory: func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy {
		return policy.NewMockingjay(sets, ways, scaledSampledSets)
	}}
}

// CAREScheme returns the CARE comparison scheme.
func CAREScheme() Scheme {
	return Scheme{Name: "CARE", Factory: func(sets, ways, cores int, obstructed func(mem.CoreID) bool) cache.Policy {
		c := policy.NewCARE(sets, ways, scaledSampledSets)
		c.Obstructed = obstructed
		return c
	}}
}

// DRRIPScheme returns the DRRIP extension baseline.
func DRRIPScheme() Scheme {
	return Scheme{Name: "DRRIP", Factory: func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy {
		return policy.NewDRRIP(sets, ways)
	}}
}

// SRRIPScheme returns the static RRIP baseline that DRRIP set-duels
// against; exposing it directly lets sweeps separate the static policy
// from the duelling machinery.
func SRRIPScheme() Scheme {
	return Scheme{Name: "SRRIP", Factory: func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy {
		return policy.NewSRRIP(sets, ways)
	}}
}

// PACManScheme returns the PACMan extension scheme (paper §VIII).
func PACManScheme() Scheme {
	return Scheme{Name: "PACMan", Factory: func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy {
		return policy.NewPACMan(sets, ways)
	}}
}

// SHiPPPScheme returns the SHiP++ extension scheme.
func SHiPPPScheme() Scheme {
	return Scheme{Name: "SHiP++", Factory: func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy {
		return policy.NewSHiPPP(sets, ways, scaledSampledSets)
	}}
}

// ChromeConfig returns the experiment-scaled CHROME configuration: the
// paper's Table II hyper-parameters with the sampling density scaled to
// the reduced instruction budgets.
func ChromeConfig() chrome.Config {
	cfg := chrome.DefaultConfig()
	cfg.SampledSets = scaledSampledSets
	return cfg
}

// NChromeConfig returns the scaled N-CHROME ablation configuration.
func NChromeConfig() chrome.Config {
	cfg := chrome.NCHROMEConfig()
	cfg.SampledSets = scaledSampledSets
	return cfg
}

// CHROMEScheme returns CHROME with the given configuration.
func CHROMEScheme(cfg chrome.Config) Scheme {
	name := "CHROME"
	if !cfg.ConcurrencyAware {
		name = "N-CHROME"
	}
	return Scheme{Name: name, Factory: func(sets, ways, cores int, obstructed func(mem.CoreID) bool) cache.Policy {
		a := chrome.New(cfg, sets, ways)
		a.Obstructed = obstructed
		return a
	}}
}

// DefaultSchemes returns the paper's five compared schemes in Figure order:
// LRU baseline, Hawkeye, Glider, Mockingjay, CARE, CHROME.
func DefaultSchemes() []Scheme {
	return []Scheme{
		LRUScheme(), HawkeyeScheme(), GliderScheme(),
		MockingjayScheme(), CAREScheme(), CHROMEScheme(ChromeConfig()),
	}
}

// AllSchemes returns every registered scheme: the paper's five compared
// schemes plus the extension baselines (§VIII). The registry-completeness
// tests (internal/policy and cmd/chromevet's policyreg analyzer) hold this
// list to the policy package's exported constructors, so a new policy must
// be added here to land.
func AllSchemes() []Scheme {
	return append(DefaultSchemes(),
		SRRIPScheme(), DRRIPScheme(), PACManScheme(), SHiPPPScheme())
}

// Report is the structured outcome of one experiment runner.
type Report struct {
	// ID is the paper artifact identifier (e.g. "fig06", "tab07").
	ID string
	// Title describes the experiment.
	Title string
	// Table is the rendered result table.
	Table *metrics.Table
	// Summary holds headline name->value pairs (geomean speedups etc.).
	Summary map[string]float64
	// Notes records paper-reported values and shape checks.
	Notes []string
}

// String renders the report.
func (r Report) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Table)
	if len(r.Summary) > 0 {
		keys := make([]string, 0, len(r.Summary))
		for k := range r.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s += fmt.Sprintf("%-40s %8.3f\n", k, r.Summary[k])
		}
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// RunMixPublic exposes runMix for tools and examples: simulate one mix
// under one scheme at the given scale.
func RunMixPublic(gens []trace.Generator, cores int, scheme Scheme, pf PrefetchConfig, sc Scale) sim.Result {
	return runMix(gens, cores, scheme, pf, sc)
}

// runMix simulates one mix under one scheme and returns the result.
func runMix(gens []trace.Generator, cores int, scheme Scheme, pf PrefetchConfig, sc Scale) sim.Result {
	if sc.Sampling == "simpoint" {
		return runMixSampled(gens, cores, scheme, pf, sc)
	}
	res := sc.newMixSystem(gens, cores, scheme, pf).Run(sc.Warmup, sc.Measure)
	res.PolicyName = scheme.Name
	countInstructions(res)
	return res
}

// newMixSystem constructs one cell's simulated system: scaled geometry,
// the mix's prefetchers, and the scheme's policy.
func (sc Scale) newMixSystem(gens []trace.Generator, cores int, scheme Scheme, pf PrefetchConfig) *sim.System {
	cfg := sim.ScaledConfig(cores)
	cfg.L1Prefetcher = pf.L1
	cfg.L2Prefetcher = pf.L2
	return sim.New(cfg, gens, scheme.Factory)
}

// representativeOrder ranks SPEC profiles by behavioural diversity so
// small-subset sweeps cover reuse-heavy, thrashing, pointer-chasing, and
// streaming classes rather than the first registrations.
var representativeOrder = []string{
	"gcc", "mcf", "xalancbmk", "omnetpp", "hmmer", "xz",
	"gcc17", "soplex", "gromacs", "wrf", "mcf17", "xalancbmk17",
	"astar", "pop2", "milc", "bwaves", "libquantum", "leslie3d",
	"zeusmp", "cam4", "lbm", "cactusBSSN", "fotonik3d", "roms",
	"GemsFDTD", "bwaves17", "wrf17",
}

// specSubset returns the SPEC profiles limited per Scale.Profiles, taking a
// behaviourally diverse subset when limited (2x Profiles workloads total).
func specSubset(sc Scale) []workload.Profile {
	if sc.Profiles <= 0 {
		return workload.SPEC()
	}
	want := sc.Profiles * 2
	var out []workload.Profile
	for _, name := range representativeOrder {
		if len(out) >= want {
			break
		}
		if p, err := workload.ByName(name); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// representativeProfiles returns the first n behaviourally diverse SPEC
// profiles.
func representativeProfiles(n int) []workload.Profile {
	var out []workload.Profile
	for _, name := range representativeOrder {
		if len(out) >= n {
			break
		}
		if p, err := workload.ByName(name); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// gapSubset returns GAP profiles limited per Scale.Profiles.
func gapSubset(sc Scale) []workload.Profile {
	ps := workload.BySuite(workload.GAP)
	if sc.Profiles <= 0 || sc.Profiles*2 >= len(ps) {
		return ps
	}
	return ps[:sc.Profiles*2]
}

// speedups runs all schemes on one mix and returns name->weighted speedup
// over the LRU scheme (which must be schemes[0]) plus the raw results. The
// per-scheme runs are independent cells (each gets fresh generators), so
// they execute on the Scale's worker pool; the maps are merged by scheme
// index, making the output identical at any parallelism.
func speedups(gens func() []trace.Generator, cores int, schemes []Scheme, pf PrefetchConfig, sc Scale) (map[string]float64, map[string]sim.Result) {
	rs := parMap(sc, len(schemes), func(i int) sim.Result {
		return runMix(gens(), cores, schemes[i], pf, sc)
	})
	base := rs[0]
	out := map[string]float64{schemes[0].Name: 1.0}
	results := map[string]sim.Result{schemes[0].Name: base}
	for i, s := range schemes[1:] {
		out[s.Name] = metrics.WeightedSpeedup(rs[i+1].IPC, base.IPC)
		results[s.Name] = rs[i+1]
	}
	return out, results
}

// mixSweep runs all schemes on every mix and returns, per mix, the
// name->weighted-speedup map over schemes[0] (the LRU baseline). The whole
// mixes x schemes grid is flattened onto one worker pool, so wide mix
// sweeps (Fig. 10, Fig. 11) saturate the workers without nesting pools.
func mixSweep(mixes []workload.Mix, cores int, schemes []Scheme, pf PrefetchConfig, sc Scale) []map[string]float64 {
	grid := parGrid(sc, len(mixes), len(schemes), func(m, s int) sim.Result {
		return runMix(sc.mixGens(mixes[m]), cores, schemes[s], pf, sc)
	})
	out := make([]map[string]float64, len(mixes))
	for m, row := range grid {
		ws := map[string]float64{schemes[0].Name: 1.0}
		for s := 1; s < len(schemes); s++ {
			ws[schemes[s].Name] = metrics.WeightedSpeedup(row[s].IPC, row[0].IPC)
		}
		out[m] = ws
	}
	return out
}
