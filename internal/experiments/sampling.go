package experiments

// SimPoint-style representative interval sampling (DESIGN.md §10). The
// sampled runner profiles the mix's frozen recordings in fixed-instruction
// intervals, clusters the measurement window's intervals with deterministic
// seeded k-means, and simulates only one representative per cluster, in a
// single stitched pass per cell: the replayers seek between segments while
// the system keeps running, so caches, learned policy state, and DRAM
// pressure stay warm across the skips and each representative needs only a
// short recency re-warm. The composed record-weighted estimate trades a
// bounded error for a ~5× wall-clock reduction per cell at the default
// knobs, which is what lets the hetero figures run at ≥10× today's
// instruction budgets (EXPERIMENTS.md).

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"chrome/internal/cache"
	"chrome/internal/mem"
	"chrome/internal/sim"
	"chrome/internal/simpoint"
	"chrome/internal/trace"
)

// Default sampling knobs, applied when the Scale selects simpoint sampling
// but leaves the corresponding field zero.
const (
	// DefaultSPInterval is the per-core instruction length of each profiled
	// interval.
	DefaultSPInterval mem.Instr = 16_000
	// DefaultSPWarmup is the per-representative truncated warmup, replayed
	// immediately before the representative's interval.
	DefaultSPWarmup mem.Instr = 8_000
	// DefaultSPClusters caps how many representatives the k-means selects.
	DefaultSPClusters = 5
)

// EffectiveSampling returns the effective interval/warmup/cluster knobs
// with defaults applied (what a "simpoint" run will actually use).
func (sc Scale) EffectiveSampling() (interval, warmup mem.Instr, clusters int) {
	return sc.samplingParams()
}

// samplingParams returns the effective interval/warmup/cluster knobs with
// defaults applied.
func (sc Scale) samplingParams() (interval, warmup mem.Instr, clusters int) {
	interval, warmup, clusters = sc.SPInterval, sc.SPWarmup, sc.SPClusters
	if interval == 0 {
		interval = DefaultSPInterval
	}
	if warmup == 0 {
		warmup = DefaultSPWarmup
	}
	if clusters == 0 {
		clusters = DefaultSPClusters
	}
	return interval, warmup, clusters
}

// profileCache memoizes interval profiles per (mix recordings, interval,
// LLC sets): profiling is a pure function of frozen recordings, and every
// scheme of a sweep runs the same mix, so one walk serves the whole grid.
// The mutex makes the memo safe under the parallel cell runner; hits and
// misses return the identical (deterministic) value, so output stays
// byte-identical at any -j.
var profileCache struct {
	mu sync.Mutex                  //chromevet:lockrank 20
	m  map[string]simpoint.Profile //chromevet:guardedby mu
}

// cachedProfile returns the mix's interval profile, computing it on first
// use. The key identifies the frozen per-core recordings by (name, record
// count) — the workload recording cache hands out one recording per
// (profile, budget), so equal keys mean equal streams.
func cachedProfile(reps []*trace.Replayer, interval mem.Instr, llcSets int) simpoint.Profile {
	var key strings.Builder
	fmt.Fprintf(&key, "%d/%d", interval, llcSets)
	for _, r := range reps {
		fmt.Fprintf(&key, "|%s:%d", r.Name(), r.Len())
	}
	k := key.String()

	profileCache.mu.Lock() //chromevet:allow globalmut -- mutex-guarded memo of a pure function; hits and misses return identical values at any -j
	defer profileCache.mu.Unlock()
	if p, ok := profileCache.m[k]; ok {
		return p
	}
	clones := make([]*trace.Replayer, len(reps))
	for i, r := range reps {
		clones[i] = r.Clone()
	}
	p := simpoint.ProfileReplayers(clones, interval, llcSets)
	if profileCache.m == nil {
		profileCache.m = map[string]simpoint.Profile{} //chromevet:allow globalmut -- mutex-guarded memo of a pure function of frozen recordings
	}
	profileCache.m[k] = p //chromevet:allow globalmut -- mutex-guarded memo of a pure function of frozen recordings
	return p
}

// runMixSampled estimates runMix's exact result from representative
// intervals only, in one stitched pass: a single system per cell plays the
// selected segments in stream order (trace.NewStitched), so caches,
// learned policy state, and DRAM queue pressure carry across the skipped
// regions and each representative needs only a short recency re-warm. The
// estimate is deterministic in (recordings, scheme, Scale): profiling,
// clustering, and the segmented run are all seeded and sequential.
func runMixSampled(gens []trace.Generator, cores int, scheme Scheme, pf PrefetchConfig, sc Scale) sim.Result {
	reps := make([]*trace.Replayer, len(gens))
	for i, g := range gens {
		r, ok := g.(*trace.Replayer)
		if !ok {
			panic(fmt.Sprintf("experiments: -sampling=simpoint requires replayed generators, got %T for core %d (do not combine with -noreplay)", g, i))
		}
		reps[i] = r
	}
	interval, spWarmup, clusters := sc.samplingParams()

	// Profile the full per-core streams in time-aligned intervals, then
	// cluster only the intervals inside the measurement window — the
	// quantity the exact runner reports.
	prof := cachedProfile(reps, interval, sim.ScaledConfig(cores).LLCSets)
	tStart := int(((sc.Warmup.Uint64() + interval.Uint64() - 1) / interval.Uint64()) & (1<<31 - 1))
	tEnd := min(len(prof.Features), int(((sc.Warmup.Uint64()+sc.Measure.Uint64())/interval.Uint64())&(1<<31-1)))
	if tEnd-tStart < 1 {
		// The recording is too short to cover even one whole measurement
		// interval; the exact run is cheaper than any estimate of it.
		exact := sc
		exact.Sampling = "none"
		return runMix(gens, cores, scheme, pf, exact)
	}
	picked := simpoint.Pick(prof.Features[tStart:tEnd], clusters, sc.Seed)

	// One stitched generator per core: segment j replays the stream from
	// spWarmup instructions before representative j's interval (Validate
	// guarantees every representative starts at or after the full warmup
	// boundary, so the seek start never underflows), for spWarmup+interval
	// instructions. Picked reps arrive stream-ordered from Pick.
	segLen := spWarmup + interval
	starts := make([]mem.Instr, len(picked))
	for j, rep := range picked {
		starts[j] = mem.InstrOf(uint64(tStart+rep.Index)*interval.Uint64()) - spWarmup
	}
	stitched := make([]trace.Generator, len(reps))
	for i, r := range reps {
		stitched[i] = trace.NewStitched(r.Clone(), starts, segLen)
	}

	sys := sc.newMixSystem(stitched, cores, scheme, pf)

	nWin := float64(tEnd - tStart)
	est := sim.Result{
		PolicyName:   scheme.Name,
		IPC:          make([]float64, cores),
		Instructions: make([]mem.Instr, cores),
		Cycles:       make([]mem.Cycle, cores),
		CAMAT:        make([]float64, cores),
	}
	instrs := make([]float64, cores)
	cycles := make([]float64, cores)
	var dramReads, dramWrites float64
	var prevReads, prevWrites uint64
	var llc [16]float64
	var pos mem.Instr
	for _, rep := range picked {
		sys.RunPhaseTo(pos + spWarmup)
		sys.BeginMeasurement()
		sys.RunPhaseTo(pos + segLen)
		r := sys.Collect()
		pos += segLen

		w := rep.Weight
		for c := 0; c < cores; c++ {
			// IPC composes as a ratio of weighted totals below — a weighted
			// mean of per-interval IPCs would overweight fast intervals
			// (equal-instruction intervals weight CPI, not IPC).
			est.CAMAT[c] += w * r.CAMAT[c]
			instrs[c] += w * float64(r.Instructions[c].Uint64())
			cycles[c] += w * float64(r.Cycles[c].Uint64())
		}
		for i, v := range statsCounters(r.LLC) {
			llc[i] += w * v
		}
		// DRAM counters are lifetime totals; each segment contributes its
		// delta (the segment's warmup share included, as a fresh per-rep
		// run's would be).
		dramReads += w * float64(r.DRAMReads-prevReads)
		dramWrites += w * float64(r.DRAMWrites-prevWrites)
		prevReads, prevWrites = r.DRAMReads, r.DRAMWrites
		// TotalInstructions stays the honest retired count across the
		// stitched run (it feeds simulated-MIPS reporting, which must
		// reflect work actually done, not the estimate). Lifetime counter:
		// the last segment's snapshot covers the whole pass.
		est.TotalInstructions = r.TotalInstructions
	}

	// Scale the per-interval weighted means up to the full measurement
	// window, so downstream MPKI (misses per retired kilo-instruction) and
	// totals read like an exact run over the window.
	for c := 0; c < cores; c++ {
		est.Instructions[c] = mem.InstrOf(roundCount(nWin * instrs[c]))
		est.Cycles[c] = mem.CycleOf(roundCount(nWin * cycles[c]))
		if cycles[c] > 0 {
			est.IPC[c] = instrs[c] / cycles[c]
		}
	}
	for i := range llc {
		llc[i] = nWin * llc[i]
	}
	est.LLC = statsFromCounters(llc)
	est.DRAMReads = roundCount(nWin * dramReads)
	est.DRAMWrites = roundCount(nWin * dramWrites)
	countInstructions(est)
	return est
}

func roundCount(v float64) uint64 {
	if v <= 0 {
		return 0
	}
	return uint64(math.Round(v))
}

// statsCounters flattens the LLC counters into a fixed-order vector so the
// weighted composition treats every counter uniformly.
func statsCounters(s cache.Stats) [16]float64 {
	return [16]float64{
		float64(s.DemandLoadHits), float64(s.DemandLoadMisses),
		float64(s.DemandStoreHits), float64(s.DemandStoreMisses),
		float64(s.PrefetchHits), float64(s.PrefetchMisses),
		float64(s.PrefetchFills), float64(s.PrefetchUseful),
		float64(s.Fills), float64(s.Bypasses),
		float64(s.Evictions), float64(s.EvictionsUnused),
		float64(s.EvictionsUnusedPF), float64(s.Writebacks),
		float64(s.WritebackHits), float64(s.WritebackMisses),
	}
}

func statsFromCounters(v [16]float64) cache.Stats {
	return cache.Stats{
		DemandLoadHits: roundCount(v[0]), DemandLoadMisses: roundCount(v[1]),
		DemandStoreHits: roundCount(v[2]), DemandStoreMisses: roundCount(v[3]),
		PrefetchHits: roundCount(v[4]), PrefetchMisses: roundCount(v[5]),
		PrefetchFills: roundCount(v[6]), PrefetchUseful: roundCount(v[7]),
		Fills: roundCount(v[8]), Bypasses: roundCount(v[9]),
		Evictions: roundCount(v[10]), EvictionsUnused: roundCount(v[11]),
		EvictionsUnusedPF: roundCount(v[12]), Writebacks: roundCount(v[13]),
		WritebackHits: roundCount(v[14]), WritebackMisses: roundCount(v[15]),
	}
}
