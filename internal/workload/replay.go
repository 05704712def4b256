package workload

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"chrome/internal/mem"
	"chrome/internal/trace"
)

// Recording cache: each (profile, seed, budget) is recorded exactly once per
// process and the frozen trace.Recording is shared — across the K schemes of
// a cell row and across parallel cells (read-only: a frozen recording panics
// on any mutation). Recordings are only ever generated in-process: a stream
// is a pure function of (profile, seed, budget), and generating it takes
// well under 1% of a runner's wall-clock (DESIGN.md §8).
//
// The cache follows the registry's freeze discipline: the outer
// per-profile map is built exactly once, after the registry latch flips, so
// parallel workers index an immutable map and only take the narrow
// per-profile lock while recording. Asking to record a profile the frozen
// registry does not know is a bug and panics, mirroring late register.

// recKey identifies one recorded stream of a profile.
type recKey struct {
	seed   uint64
	budget mem.Instr
}

// profileRecordings holds the recordings of a single profile. The mutex
// only guards the inner map; the *trace.Recording values are frozen and
// shared without locks.
type profileRecordings struct {
	mu   sync.Mutex
	recs map[recKey]*trace.Recording
}

var (
	recordings map[string]*profileRecordings
	recBuild   sync.Once
	// genNanos accumulates wall time spent generating streams, so
	// cmd/experiments can report the generation-vs-simulation split.
	genNanos atomic.Int64
)

// ensureRecordings builds the outer cache map, one entry per registered
// profile, freezing the registry first so the map can never go stale.
func ensureRecordings() {
	recBuild.Do(func() {
		freeze()
		m := make(map[string]*profileRecordings, len(profiles))
		for _, p := range profiles {
			m[p.Name] = &profileRecordings{recs: map[recKey]*trace.Recording{}}
		}
		recordings = m
	})
}

// GenerationTime returns the cumulative wall time this process has spent
// recording live streams.
func GenerationTime() time.Duration {
	return time.Duration(genNanos.Load())
}

// Recorded returns the frozen recording of p's stream covering at least
// budget instructions, recording it on first use. The result is immutable
// and safe to share across goroutines. Unknown profiles after the registry
// froze panic, like a late register.
func Recorded(p Profile, budget mem.Instr) *trace.Recording {
	ensureRecordings()
	pr, ok := recordings[p.Name]
	if !ok {
		panic("workload: Recorded(" + p.Name + ") of a profile unknown to the frozen registry")
	}
	key := recKey{seed: p.seed(), budget: budget}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if rec, ok := pr.recs[key]; ok {
		return rec
	}
	// Wall-clock cost of producing the stream, for the CLI's report only:
	// no simulated behaviour reads it.
	start := time.Now()
	rec := trace.RecordStream(p.build(profileRegion(p.Name), p.seed()), budget)
	genNanos.Add(int64(time.Since(start)))
	pr.recs[key] = rec
	return rec
}

// HomogeneousMix is the Generators of the mix that runs p on n cores: n
// replayers of one frozen recording.
func HomogeneousMix(p Profile, n int, budget mem.Instr) []trace.Generator {
	return Mix{Profiles: slices.Repeat([]Profile{p}, n)}.Generators(budget)
}

// Generators returns the mix's per-core replayers of its profiles' frozen
// recordings at budget: core i replays m.Profiles[i].New(i) record for
// record over the first budget instructions, per-core address offset
// included.
func (m Mix) Generators(budget mem.Instr) []trace.Generator {
	gens := make([]trace.Generator, len(m.Profiles))
	for i, p := range m.Profiles {
		gens[i] = Recorded(p, budget).Replayer(coreSpacing * mem.AddrOf(uint64(i)))
	}
	return gens
}
