package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"chrome/internal/cache"
	"chrome/internal/cache/mono"
	"chrome/internal/chrome"
	"chrome/internal/cpu"
	"chrome/internal/experiments"
	"chrome/internal/mem"
	"chrome/internal/metrics"
	"chrome/internal/prefetch"
	"chrome/internal/sim"
	"chrome/internal/trace"
	"chrome/internal/workload"
)

// Per-core budgets of the mix workloads: 7 mixes x 4 cores x 250k = 7M
// simulated instructions per repetition, a few host seconds.
const (
	mixCores   = 4
	mixWarmup  = 50_000
	mixMeasure = 200_000
)

func chromeScheme() experiments.Scheme { return experiments.CHROMEScheme(experiments.ChromeConfig()) }

// mixPlan deals the SPEC pool, padded from its start to a multiple of four,
// into 4-core mixes in a seed-shuffled order. Every seed simulates every
// profile once with different co-runners, so the seed varies the inputs
// while host time per simulated instruction stays comparable across seeds;
// mixes drawn at random from the pool would move it through composition
// alone (single mixes run at 2.5 to 5.1 M/s on the same host).
func mixPlan(seed uint64) [][]workload.Profile {
	pool := workload.SPEC()
	for i := 0; len(pool)%mixCores != 0; i++ {
		pool = append(pool, pool[i])
	}
	r := rand.New(rand.NewPCG(seed, mem.Mix64(seed^0xBE9C4)))
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	var mixes [][]workload.Profile
	for i := 0; i < len(pool); i += mixCores {
		mixes = append(mixes, pool[i:i+mixCores])
	}
	return mixes
}

// mixBench simulates every mix of the plan under one LLC scheme, from
// per-core recordings replayed through the default (monomorphized) chain.
type mixBench struct {
	workload        string
	scheme          func() experiments.Scheme
	warmup, measure mem.Instr
	names           []string
	recs            [][]*trace.Recording
	recordS         float64 // host seconds spent recording recs
	// first holds the first repetition's cells: the simulator is
	// deterministic, so every later repetition and the traced one must
	// reproduce them exactly.
	first []cell
	ref   []cell
	upd   func([]cell) error
}

// newMixBench records every core's stream of the seed's mix plan.
func newMixBench(name string, scheme func() experiments.Scheme, seed uint64, warmup, measure mem.Instr) *mixBench {
	b := &mixBench{workload: name, scheme: scheme, warmup: warmup, measure: measure}
	start := time.Now()
	for _, mix := range mixPlan(seed) {
		var names []string
		var recs []*trace.Recording
		for c, p := range mix {
			names = append(names, p.Name)
			recs = append(recs, trace.RecordStream(p.New(c), warmup+measure))
		}
		b.names = append(b.names, strings.Join(names, ","))
		b.recs = append(b.recs, recs)
	}
	b.recordS = time.Since(start).Seconds()
	return b
}

func setupMix(scheme func() experiments.Scheme) func(options, *ledger) (bench, error) {
	return func(o options, _ *ledger) (bench, error) {
		name := "mix4-" + strings.ToLower(scheme().Name)
		b := newMixBench(name, scheme, o.seed, mixWarmup, mixMeasure)
		if o.update {
			b.upd = func(cells []cell) error {
				return updateRef(refDir, o.seed, func(r *reference) { r.Cells[name] = cells })
			}
			return b, nil
		}
		ref, err := loadRef(refDir, o.seed)
		if err != nil {
			return nil, err
		}
		if ref != nil {
			if b.ref = ref.Cells[name]; b.ref == nil {
				return nil, fmt.Errorf("%s pins no cells for %s", refPath(refDir, o.seed), name)
			}
		}
		return b, nil
	}
}

// config is the mixes' system: the scaled Table V hierarchy with the
// default prefetchers.
func (b *mixBench) config() sim.Config {
	cfg := sim.ScaledConfig(mixCores)
	pf := experiments.PFDefault()
	cfg.L1Prefetcher, cfg.L2Prefetcher = pf.L1, pf.L2
	return cfg
}

func (b *mixBench) replayers(i int) []trace.Generator {
	gens := make([]trace.Generator, mixCores)
	for c, r := range b.recs[i] {
		gens[c] = r.Replayer(0)
	}
	return gens
}

func (b *mixBench) rep(l *ledger) float64 {
	cells := make([]cell, len(b.recs))
	var instr uint64
	for i := range b.recs {
		res := sim.New(b.config(), b.replayers(i), b.scheme().Factory).Run(b.warmup, b.measure)
		cells[i] = cellOf(b.names[i], res)
		instr += res.TotalInstructions.Uint64()
	}
	b.check(l, "repetition", cells)
	return float64(instr) / 1e6
}

// check holds a repetition's cells to the invariants, to the first
// repetition, and to the pinned reference when the seed has one.
func (b *mixBench) check(l *ledger, what string, cells []cell) {
	l.attempt(int64(len(cells)))
	for i, c := range cells {
		for _, v := range c.invariants((b.warmup + b.measure).Uint64(), cpu.DefaultConfig().Width) {
			l.fail("%s %s: cell %d (%s): %s", b.workload, what, i, c.Mix, v)
		}
	}
	if b.first == nil {
		b.first = cells
		if b.upd != nil {
			if err := b.upd(cells); err != nil {
				l.fail("%s: updating the reference: %v", b.workload, err)
			}
		}
	} else {
		checkCells(l, b.workload+" "+what+" vs first repetition", cells, b.first)
	}
	if b.ref != nil {
		checkCells(l, b.workload+" "+what+" vs pinned reference", cells, b.ref)
	}
}

// shimmed builds mix i's system with every core's trace generator, both
// prefetchers and the LLC policy behind s's timing shims. A policy shim is
// not a registered mono type, so the system runs the interface chain
// (Config.NoMono).
func (b *mixBench) shimmed(i int, s *shims) *sim.System {
	cfg := b.config()
	cfg.NoMono = true
	wrap := func(f sim.PrefetcherFactory) sim.PrefetcherFactory {
		return func() prefetch.Prefetcher { return &pfShim{inner: f(), p: &s.prefetch} }
	}
	cfg.L1Prefetcher, cfg.L2Prefetcher = wrap(cfg.L1Prefetcher), wrap(cfg.L2Prefetcher)
	gens := b.replayers(i)
	for c := range gens {
		gens[c] = &genShim{inner: gens[c], p: &s.trace}
	}
	return sim.New(cfg, gens, func(sets, ways, cores int, obstructed func(mem.CoreID) bool) cache.Policy {
		p := b.scheme().Factory(sets, ways, cores, obstructed)
		s.policies = append(s.policies, p)
		return &policyShim{inner: p, s: s}
	})
}

// layers runs one repetition on shimmed systems; its tracing overhead
// includes the switch to the interface chain. Layer host times are given as
// shares of that repetition.
func (b *mixBench) layers(l *ledger, t *tracer, m map[string]float64) float64 {
	s := &shims{}
	var (
		cells                  []cell
		runS, mpki, camat, lat float64
		ipcs                   []float64
		memAcc, dramR, dramW   uint64
		l1, l2, llc            cache.Stats
		ncores                 int
	)
	start := time.Now()
	for i := range b.recs {
		sys := b.shimmed(i, s)
		runStart := time.Now()
		res := sys.Run(b.warmup, b.measure)
		runS += time.Since(runStart).Seconds()
		cells = append(cells, cellOf(b.names[i], res))
		mpki += res.MPKI() / float64(len(b.recs))
		ipcs = append(ipcs, res.IPC...)
		dramR += res.DRAMReads
		dramW += res.DRAMWrites
		addStats(&llc, res.LLC)
		for c := 0; c < mixCores; c++ {
			addStats(&l1, *sys.L1(c).Stats())
			addStats(&l2, *sys.L2(c).Stats())
			memAcc += sys.Core(c).MemAccesses()
			lat += sys.Core(c).AvgLoadLatency()
			camat += res.CAMAT[c]
			ncores++
		}
	}
	traced := time.Since(start).Seconds()
	rep := t.span("traced-rep", start)
	b.check(l, "traced repetition", cells)
	share := func(sec float64) float64 { return sec / traced * 100 }

	layer := "policy"
	if _, ok := s.policies[0].(*chrome.Agent); ok {
		layer = "chrome"
	}
	var layersS float64 // host seconds inside the timed layers
	var sampled uint64
	probed := func(name string, p *probe) float64 {
		m[name+".calls"] = float64(p.calls)
		m[name+".ns"] = p.perCall(t.timerNs)
		sampled += p.sampled
		t.layer(rep, name, p)
		layersS += p.selfSeconds(t.timerNs)
		return p.selfSeconds(t.timerNs)
	}
	var policyS float64
	for h := range s.hooks {
		policyS += probed(layer+"."+hookNames[h], &s.hooks[h])
	}
	m[layer+".share_pct"] = share(policyS)
	m["trace.next.share_pct"] = share(probed("trace.next", &s.trace))
	m["prefetch.train.share_pct"] = share(probed("prefetch.train", &s.prefetch))
	if layer == "chrome" {
		var st chrome.AgentStats
		for _, p := range s.policies {
			as := p.(*chrome.Agent).Stats()
			st.Decisions += as.Decisions
			st.Explorations += as.Explorations
			st.Bypasses += as.Bypasses
			st.SampledAccesses += as.SampledAccesses
		}
		m["chrome.bypass_ratio"] = ratio(st.Bypasses, s.hooks[hookVictim].calls)
		m["chrome.explore_ratio"] = ratio(st.Explorations, st.Decisions)
		m["chrome.sampled_frac"] = ratio(st.SampledAccesses, st.Decisions)
	}
	m["prefetch.useful_ratio"] = ratio(l1.PrefetchUseful+l2.PrefetchUseful, l1.PrefetchFills+l2.PrefetchFills)
	m["cache.l1.hit_ratio"] = ratio(l1.DemandHits(), l1.DemandAccesses())
	m["cache.l2.hit_ratio"] = ratio(l2.DemandHits(), l2.DemandAccesses())
	m["cache.llc.hit_ratio"] = ratio(llc.DemandHits(), llc.DemandAccesses())
	m["cache.llc.accesses"] = float64(llc.DemandAccesses() + llc.PrefetchHits + llc.PrefetchMisses)
	m["cache.llc.mpki"] = mpki
	m["cpu.mem_accesses"] = float64(memAcc)
	m["cpu.load_latency_cyc"] = lat / float64(ncores)
	m["cpu.ipc_geomean"] = metrics.GeoMean(ipcs)
	m["camat.cycles"] = camat / float64(ncores)
	m["sim.dram.reads"] = float64(dramR)
	m["sim.dram.writes"] = float64(dramW)
	// Host time left to the cpu model, cache state machines, MSHRs, DRAM,
	// C-AMAT and the scheduler: the simulation runs less the timed layers
	// and less the timer cost the sampled calls added.
	m["sim.self_pct"] = share(runS - layersS - float64(sampled)*t.pairNs/1e9)
	m["workload.inputs_s"] = b.recordS

	monoNs, ifaceNs, err := replayProbe(s.capture, b.scheme().Factory, b.config())
	if err != nil {
		l.fail("%s LLC replay: %v", b.workload, err)
	}
	m["cache.llc_replay.mono_ns"] = monoNs
	m["cache.llc_replay.iface_ns"] = ifaceNs
	m["cpu.step.ns"] = stepProbe(b.recs[0][0])
	return traced
}

func addStats(dst *cache.Stats, s cache.Stats) {
	dst.DemandLoadHits += s.DemandLoadHits
	dst.DemandLoadMisses += s.DemandLoadMisses
	dst.DemandStoreHits += s.DemandStoreHits
	dst.DemandStoreMisses += s.DemandStoreMisses
	dst.PrefetchHits += s.PrefetchHits
	dst.PrefetchMisses += s.PrefetchMisses
	dst.PrefetchFills += s.PrefetchFills
	dst.PrefetchUseful += s.PrefetchUseful
}

func ratio[T ~uint64 | ~int64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// probeRounds is how often each probe repeats; it reports the median.
const probeRounds = 3

// replayProbe replays a captured LLC access stream, with no timing
// feedback, through the monomorphized cache and through the interface
// cache, each with a fresh policy, and returns host ns per access of each.
// The two chains must agree on hits and bypasses.
func replayProbe(stream []mem.Access, factory sim.PolicyFactory, cfg sim.Config) (monoNs, ifaceNs float64, err error) {
	if len(stream) == 0 {
		return 0, 0, fmt.Errorf("no LLC accesses captured")
	}
	llc := cache.Config{Name: "LLC", Sets: cfg.LLCSets, Ways: cfg.LLCWays}
	never := func(mem.CoreID) bool { return false }
	fresh := func() cache.Policy { return factory(cfg.LLCSets, cfg.LLCWays, cfg.Cores, never) }
	replay := func(lv cache.Level) (float64, cache.Stats) {
		start := time.Now()
		for _, acc := range stream {
			lv.Access(acc)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(stream)), *lv.Stats()
	}
	var monos, ifaces []float64
	for r := 0; r < probeRounds; r++ {
		lv := mono.For(llc, fresh())
		if lv == nil {
			return 0, 0, fmt.Errorf("policy %s has no mono instantiation", fresh().Name())
		}
		mNs, mSt := replay(lv)
		iNs, iSt := replay(cache.New(llc, fresh()))
		if mSt.DemandHits()+mSt.PrefetchHits != iSt.DemandHits()+iSt.PrefetchHits || mSt.Bypasses != iSt.Bypasses {
			err = fmt.Errorf("mono and interface replays disagree: hits %d vs %d, bypasses %d vs %d",
				mSt.DemandHits()+mSt.PrefetchHits, iSt.DemandHits()+iSt.PrefetchHits, mSt.Bypasses, iSt.Bypasses)
		}
		monos, ifaces = append(monos, mNs), append(ifaces, iNs)
	}
	return median(monos), median(ifaces), err
}

// stepProbe times the core model alone: one core over a replay of rec with
// a constant-latency memory, in host ns per Step.
func stepProbe(rec *trace.Recording) float64 {
	constant := func(mem.CoreID, trace.Record, mem.Cycle) mem.Cycle { return 5 }
	var ns []float64
	for r := 0; r < probeRounds; r++ {
		core := cpu.New(0, cpu.DefaultConfig(), rec.Replayer(0), constant)
		start := time.Now()
		for i := 0; i < rec.Len(); i++ {
			core.Step()
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(rec.Len()))
	}
	return median(ns)
}
