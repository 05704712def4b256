// Package sim assembles the simulated system: N trace-driven cores, private
// L1/L2 caches with hardware prefetchers, a shared LLC under a pluggable
// management policy, a banked DRAM model, and the C-AMAT monitor. It runs
// warmup + measurement phases and reports the metrics the paper's
// evaluation uses (per-core IPC, LLC demand miss ratio, EPHR, bypass
// coverage).
package sim

import (
	"fmt"

	"chrome/internal/cache"
	"chrome/internal/camat"
	"chrome/internal/cpu"
	"chrome/internal/mem"
	"chrome/internal/policy"
	"chrome/internal/prefetch"
	"chrome/internal/trace"
)

// PolicyFactory builds an LLC policy for a given geometry. The obstructed
// callback reports per-core LLC-obstruction from the C-AMAT monitor;
// concurrency-aware policies (CHROME, CARE) wire it in, others ignore it.
type PolicyFactory func(sets, ways, cores int, obstructed func(core mem.CoreID) bool) cache.Policy

// PrefetcherFactory builds a prefetcher instance (one per core per level).
type PrefetcherFactory func() prefetch.Prefetcher

// The hierarchy's Table V timing: each level's hit latency in core cycles
// and its MSHR entries.
const (
	l1Latency  mem.Cycle = 5
	l1MSHRs              = 16
	l2Latency  mem.Cycle = 10
	l2MSHRs              = 48
	llcLatency mem.Cycle = 40
	llcMSHRs             = 64 // per core
	// prefetchIssueMax bounds prefetch issues per demand access.
	prefetchIssueMax = 8
)

// Config describes a system: its core count, its cache geometry and its
// prefetchers. The core model (cpu.DefaultConfig), the latencies, the MSHR
// files and the DRAM are Table V's and fixed.
type Config struct {
	Cores int

	// L1 data cache and L2 (private, per core), and the shared LLC.
	L1Sets, L1Ways   int
	L2Sets, L2Ways   int
	LLCSets, LLCWays int

	// L1Prefetcher and L2Prefetcher build the per-core prefetchers
	// (nil means no prefetching at that level).
	L1Prefetcher PrefetcherFactory
	L2Prefetcher PrefetcherFactory

	// Deprecated: NoMono does nothing. The simulator has one cache chain;
	// the field is kept only because bench/mix.go sets it.
	NoMono bool
}

// PaperConfig returns the Table V configuration for the given core count:
// 48KB 12-way L1, 1.25MB 20-way L2, 3MB/core 12-way LLC.
func PaperConfig(cores int) Config {
	cfg := Config{Cores: cores}
	cfg.L1Sets, cfg.L1Ways = 64, 12           // 48KB
	cfg.L2Sets, cfg.L2Ways = 1024, 20         // 1.25MB (rounded to power-of-two sets)
	cfg.LLCSets, cfg.LLCWays = 4096*cores, 12 // 3MB per core
	return cfg
}

// ScaledConfig returns the default experiment configuration: the same
// hierarchy shape as Table V scaled down (16KB L1, 128KB L2, 384KB/core
// 12-way LLC) so that the scaled instruction budgets exercise the LLC the
// way the paper's 200M-instruction runs exercise a 3MB/core LLC.
func ScaledConfig(cores int) Config {
	cfg := Config{Cores: cores}
	cfg.L1Sets, cfg.L1Ways = 32, 8           // 16KB
	cfg.L2Sets, cfg.L2Ways = 256, 8          // 128KB
	cfg.LLCSets, cfg.LLCWays = 512*cores, 12 // 384KB per core
	return cfg
}

// System is one assembled simulation instance. Every cache level is a
// cache.Cache; the LLC's scheme sits behind its Policy hooks.
type System struct {
	cores []*cpu.Core
	l1    []*cache.Cache
	l2    []*cache.Cache
	llc   *cache.Cache
	l1pf  []prefetch.Prefetcher
	l2pf  []prefetch.Prefetcher
	l1m   []*mshr
	l2m   []*mshr
	llcm  *mshr
	dram  *DRAM
	mon   *camat.Monitor
	// onLLC, when set, sees every LLC access the monitor records, as
	// (core, start cycle, latency); tests hold the monitor's union of
	// intervals to an exact one through it.
	onLLC func(core mem.CoreID, start, latency mem.Cycle)

	// pfBuf and l2pfBuf are reused prefetch-candidate scratch buffers (one
	// per training site so a buffer is never both iterated and refilled);
	// they keep the per-access path allocation-free.
	pfBuf   []mem.Addr
	l2pfBuf []mem.Addr
}

// New assembles a system running the LLC policy built by factory, with one
// trace generator per core. The system owns gens from here on: build fresh
// generators per system (workload.HomogeneousMix, workload.Mix.Generators).
func New(cfg Config, gens []trace.Generator, factory PolicyFactory) *System {
	if len(gens) != cfg.Cores {
		panic(fmt.Sprintf("sim: %d generators for %d cores", len(gens), cfg.Cores))
	}
	if cfg.Cores > 1<<schedIDBits {
		panic(fmt.Sprintf("sim: %d cores, at most %d", cfg.Cores, 1<<schedIDBits))
	}
	s := &System{dram: NewDRAM()}
	s.mon = camat.New(cfg.Cores, s.dram.AvgLatency(), camat.DefaultEpochCycles)
	pol := factory(cfg.LLCSets, cfg.LLCWays, cfg.Cores, s.mon.Obstructed)
	s.llc = cache.New(cache.Config{Name: "LLC", Sets: cfg.LLCSets, Ways: cfg.LLCWays}, pol)
	s.llcm = newMSHR(llcMSHRs * cfg.Cores)
	l1Cfg := cache.Config{Name: "L1D", Sets: cfg.L1Sets, Ways: cfg.L1Ways}
	l2Cfg := cache.Config{Name: "L2", Sets: cfg.L2Sets, Ways: cfg.L2Ways}
	for i := 0; i < cfg.Cores; i++ {
		s.l1 = append(s.l1, cache.New(l1Cfg, policy.NewLRU()))
		s.l2 = append(s.l2, cache.New(l2Cfg, policy.NewLRU()))
		s.l1m = append(s.l1m, newMSHR(l1MSHRs))
		s.l2m = append(s.l2m, newMSHR(l2MSHRs))
		if cfg.L1Prefetcher != nil {
			s.l1pf = append(s.l1pf, cfg.L1Prefetcher())
		} else {
			s.l1pf = append(s.l1pf, prefetch.NewNone())
		}
		if cfg.L2Prefetcher != nil {
			s.l2pf = append(s.l2pf, cfg.L2Prefetcher())
		} else {
			s.l2pf = append(s.l2pf, prefetch.NewNone())
		}
		core := cpu.New(mem.CoreIDOf(i), cpu.DefaultConfig(), gens[i], s.memAccess)
		s.cores = append(s.cores, core)
	}
	return s
}

// LLC returns the shared last-level cache.
func (s *System) LLC() *cache.Cache { return s.llc }

// Monitor returns the C-AMAT monitor.
func (s *System) Monitor() *camat.Monitor { return s.mon }

// DRAM returns the main-memory model.
func (s *System) DRAM() *DRAM { return s.dram }

// Core returns core i.
func (s *System) Core(i int) *cpu.Core { return s.cores[i] }

// memAccess is the cpu.MemFunc: it walks the hierarchy for one demand
// access and returns the load-to-use latency.
//
//chromevet:hot
func (s *System) memAccess(core mem.CoreID, rec trace.Record, cycle mem.Cycle) mem.Cycle {
	typ := mem.Load
	if rec.Write {
		typ = mem.Store
	}
	acc := mem.Access{PC: rec.PC, Addr: rec.Addr, Type: typ, Core: core, Cycle: cycle}
	return s.l1Access(acc)
}

// l1Access serves a demand access at the L1, recursing into L2/LLC/DRAM on
// misses and triggering the L1 prefetcher.
//
//chromevet:hot
func (s *System) l1Access(acc mem.Access) mem.Cycle {
	core := acc.Core
	l1 := s.l1[core]
	res := l1.Access(acc)
	latency := l1Latency

	if res.Hit {
		// A hit on an in-flight fill (e.g. a just-issued prefetch) merges
		// with it and pays the residual latency.
		if res.Block.ReadyAt > acc.Cycle+latency {
			latency = res.Block.ReadyAt - acc.Cycle
		}
	} else {
		start := s.l1m[core].acquire(acc.Cycle + l1Latency)
		below := acc
		below.Cycle = start
		lowerLat := s.l2Access(below, true)
		done := start + lowerLat
		s.l1m[core].commit(done)
		latency = done - acc.Cycle
		if res.Block != nil {
			res.Block.ReadyAt = done
		}
		s.handleL1Eviction(core, res, acc.Cycle)
	}

	// Train the L1 prefetcher on demand traffic and issue its candidates.
	s.pfBuf = s.l1pf[core].Train(acc, res.Hit, s.pfBuf[:0])
	s.issuePrefetches(core, acc, s.pfBuf, true)
	return latency
}

//chromevet:hot
func (s *System) handleL1Eviction(core mem.CoreID, res cache.Result, cycle mem.Cycle) {
	if !res.EvictedValid || !res.Evicted.Dirty {
		return
	}
	wb := mem.Access{Addr: res.Evicted.Addr, Type: mem.Writeback, Core: core, Cycle: cycle}
	wbRes := s.l2[core].Access(wb)
	if !wbRes.Hit {
		// Non-inclusive hierarchy: forward the writeback to the LLC.
		s.llcWriteback(wb)
	}
}

// l2Access serves an access at the private L2. demand marks accesses on the
// core's critical path (L1 demand misses); prefetch traffic sets it false.
//
//chromevet:hot
func (s *System) l2Access(acc mem.Access, demand bool) mem.Cycle {
	core := acc.Core
	l2 := s.l2[core]
	res := l2.Access(acc)
	latency := l2Latency

	if res.Hit {
		if res.Block.ReadyAt > acc.Cycle+latency {
			latency = res.Block.ReadyAt - acc.Cycle
		}
	} else {
		start := s.l2m[core].acquire(acc.Cycle + l2Latency)
		below := acc
		below.Cycle = start
		lowerLat := s.llcAccess(below)
		done := start + lowerLat
		s.l2m[core].commit(done)
		latency = done - acc.Cycle
		if res.Block != nil {
			res.Block.ReadyAt = done
		}
		if res.EvictedValid && res.Evicted.Dirty {
			// Writebacks drain from "now": they are off the critical path and
			// must not be scheduled at the miss's completion time, or queue
			// wait would compound into a feedback loop.
			s.llcWriteback(mem.Access{Addr: res.Evicted.Addr, Type: mem.Writeback, Core: core, Cycle: acc.Cycle})
		}
	}

	if demand && acc.Type.IsDemand() {
		// Train the L2 prefetcher on demand traffic reaching the L2. A
		// dedicated scratch buffer (not s.pfBuf) is reused across calls:
		// the L1 trainer's buffer is still being iterated by
		// issuePrefetches when prefetch fills recurse into l2Access, but
		// that recursion has demand=false so l2pfBuf is never refilled
		// while in use.
		s.l2pfBuf = s.l2pf[core].Train(acc, res.Hit, s.l2pfBuf[:0])
		s.issuePrefetches(core, acc, s.l2pfBuf, false)
	}
	return latency
}

// llcAccess serves an access at the shared LLC, recording C-AMAT activity.
//
//chromevet:hot
func (s *System) llcAccess(acc mem.Access) mem.Cycle {
	res := s.llc.Access(acc)
	latency := llcLatency
	if res.Hit {
		if res.Block.ReadyAt > acc.Cycle+latency {
			latency = res.Block.ReadyAt - acc.Cycle
		}
	} else {
		start := s.llcm.acquire(acc.Cycle + llcLatency)
		wait := start - (acc.Cycle + llcLatency)
		dramLat := s.dram.Access(acc.Addr, start, false)
		s.llcm.commit(start + dramLat)
		latency = llcLatency + wait + dramLat
		if res.Block != nil {
			res.Block.ReadyAt = acc.Cycle + latency
		}
		if res.EvictedValid && res.Evicted.Dirty {
			// Dirty victims drain through the write buffer from "now"; their
			// completion is off every critical path.
			s.dram.Access(res.Evicted.Addr, acc.Cycle, true)
		}
	}
	s.mon.Record(acc.Core, acc.Cycle, latency)
	if s.onLLC != nil {
		s.onLLC(acc.Core, acc.Cycle, latency)
	}
	return latency
}

// llcWriteback sends a dirty line down to the LLC (or DRAM on LLC miss).
//
//chromevet:hot
func (s *System) llcWriteback(wb mem.Access) {
	res := s.llc.Access(wb)
	if !res.Hit {
		s.dram.Access(wb.Addr, wb.Cycle, true)
	}
}

// issuePrefetches sends prefetch candidates down the hierarchy. L1
// prefetches (fromL1) fill L1, L2 and LLC; L2 prefetches fill L2 and LLC.
// Prefetch latency is off the core's critical path but occupies MSHRs,
// DRAM bandwidth, and cache capacity.
//
//chromevet:hot
func (s *System) issuePrefetches(core mem.CoreID, trigger mem.Access, cands []mem.Addr, fromL1 bool) {
	n := 0
	for _, target := range cands {
		if n >= prefetchIssueMax {
			break
		}
		pf := mem.Access{
			PC:    trigger.PC,
			Addr:  target,
			Type:  mem.Prefetch,
			Core:  core,
			Cycle: trigger.Cycle,
		}
		if fromL1 {
			if s.l1[core].Probe(target) {
				continue
			}
			lowerLat := s.l2Access(pf, false)
			res := s.l1[core].Access(pf)
			if res.Block != nil {
				res.Block.ReadyAt = pf.Cycle + lowerLat
			}
			s.handleL1Eviction(core, res, trigger.Cycle)
		} else {
			if s.l2[core].Probe(target) {
				continue
			}
			s.l2Access(pf, false)
		}
		n++
	}
}

// Run executes warmup then measurement, interleaving cores by their issue
// frontiers, and returns the collected results. Each core executes exactly
// warmup+measure retired instructions.
func (s *System) Run(warmup, measure mem.Instr) Result {
	s.runPhase(warmup)
	// Reset statistics for the measurement window.
	s.llc.ResetStats()
	for i := range s.cores {
		s.l1[i].ResetStats()
		s.l2[i].ResetStats()
		s.cores[i].BeginWindow()
	}
	s.runPhase(warmup + measure)
	res := s.collect()
	s.checkEndOfRun()
	return res
}

// runPhase steps cores, earliest issue frontier first, until every core
// has retired at least target instructions. Each turn makes one pass over
// the cores for the earliest live one and the runner-up, by schedKey, then
// steps the earliest until it finishes or passes the runner-up. Stepping a
// core moves no other core's frontier, so each step goes to the core a
// pass before it would pick. TestSchemeResultDigests pins the resulting
// interleaving at 1, 4 and 16 cores.
//
//chromevet:hot
func (s *System) runPhase(target mem.Instr) {
	const done = ^uint64(0) // the key of a core that has reached target
	for {
		first, second := done, done
		for i, c := range s.cores {
			k := done
			if c.Instructions() < target {
				k = schedKey(c.Cycle(), i)
			}
			first, second = min(first, k), min(second, max(first, k))
		}
		if first == done {
			return
		}
		i := int(first & (1<<schedIDBits - 1))
		c := s.cores[i]
		for c.Instructions() < target && schedKey(c.Cycle(), i) < second {
			c.Step()
		}
	}
}

// schedIDBits is the width of the core ID in a schedKey; New refuses more
// cores than it can number.
const schedIDBits = 16

// schedKey orders the scheduler's cores, earliest cycle first and ties to
// the lowest core ID, as one integer: the cycle above the core's ID, which
// is its index in System.cores. It holds while cycles stay below 2^48,
// about 19 simulated hours at 4 GHz.
//
//chromevet:hot
func schedKey(cycle mem.Cycle, core int) uint64 {
	return cycle.Uint64()<<schedIDBits | uint64(core)
}

// Result aggregates one run's measurements.
type Result struct {
	// PolicyName is the LLC policy that produced the result.
	PolicyName string
	// IPC is the per-core instructions-per-cycle over the window.
	IPC []float64
	// Instructions and Cycles are the per-core window totals.
	Instructions []mem.Instr
	Cycles       []mem.Cycle
	// TotalInstructions is the lifetime retired-instruction count across
	// all cores (warmup + measurement); it feeds simulated-MIPS reporting.
	TotalInstructions mem.Instr
	// LLC is a snapshot of the LLC counters over the window.
	LLC cache.Stats
	// CAMAT is the lifetime per-core C-AMAT at the LLC.
	CAMAT []float64
	// DRAMReads/DRAMWrites are main-memory transfer counts (lifetime).
	DRAMReads, DRAMWrites uint64
}

func (s *System) collect() Result {
	r := Result{
		PolicyName: s.llc.Policy().Name(),
		LLC:        *s.llc.Stats(),
		DRAMReads:  s.dram.Reads(),
		DRAMWrites: s.dram.Writes(),
	}
	for i, c := range s.cores {
		r.IPC = append(r.IPC, c.IPC())
		r.Instructions = append(r.Instructions, c.WindowInstructions())
		r.Cycles = append(r.Cycles, c.WindowCycles())
		r.CAMAT = append(r.CAMAT, s.mon.CAMAT(mem.CoreIDOf(i)))
		r.TotalInstructions += c.Instructions()
	}
	return r
}

// MPKI returns LLC demand misses per kilo instruction across all cores.
func (r Result) MPKI() float64 {
	var instr mem.Instr
	for _, n := range r.Instructions {
		instr += n
	}
	if instr == 0 {
		return 0
	}
	return float64(r.LLC.DemandMisses()) * 1000 / float64(instr.Uint64())
}

// L1 returns core i's private L1 data cache.
func (s *System) L1(i int) *cache.Cache { return s.l1[i] }

// L2 returns core i's private L2 cache.
func (s *System) L2(i int) *cache.Cache { return s.l2[i] }
