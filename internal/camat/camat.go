// Package camat implements the Concurrent Average Memory Access Time
// (C-AMAT) monitor used by CHROME and CARE for concurrency-aware
// system-level feedback (Sun & Wang, IEEE Computer 2014; paper §II-C).
//
// C-AMAT at a memory layer is defined as the layer's memory *active* cycles
// divided by the number of accesses, where a cycle is counted once no
// matter how many accesses from the same core overlap in it. The monitor
// measures per-core C-AMAT at the LLC over fixed epochs (100K cycles in the
// paper) and classifies a core as "LLC-obstructed" for the next epoch when
// its C-AMAT(LLC) exceeds the average main-memory latency T_mem — meaning
// the core currently derives little benefit from caching at the LLC.
package camat

import "chrome/internal/mem"

// DefaultEpochCycles is the paper's runtime measurement period.
const DefaultEpochCycles = mem.Cycle(100_000)

// Monitor tracks per-core LLC access overlap and obstruction status.
//
// Overlap accounting is a running union: each record counts the part of
// its interval past the latest end the core has covered so far. That is
// the exact interval union when a core's records arrive in non-decreasing
// start order, but the simulator does not deliver them so: a prefetch is
// stamped with its trigger's cycle, while the demand it follows reaches
// the LLC later, after L1/L2 latency and MSHR waits. The cycles a late
// record spans before the covered end are not counted, so the monitor
// never exceeds the exact union and falls short of it by a little
// (TestCAMATMonitorNearExactUnion in internal/sim bounds the loss).
type Monitor struct {
	epochCycles mem.Cycle
	tMem        float64
	cores       []coreState
}

type coreState struct {
	coveredUntil mem.Cycle // end of the union of active intervals so far
	activeCycles uint64
	accesses     uint64
	obstructed   bool // verdict from the previous completed epoch

	// The cycles of the epoch being accumulated are [epochStart,
	// epochEnd): a record inside them needs no divide to find its epoch.
	epochStart, epochEnd mem.Cycle

	// lifetime aggregates (for reporting)
	totalActive   uint64
	totalAccesses uint64
}

// New builds a monitor for the given core count. tMem is the average main
// memory latency in cycles used as the obstruction threshold; epochCycles
// of zero selects the paper's 100K-cycle default.
func New(cores int, tMem float64, epochCycles mem.Cycle) *Monitor {
	if cores <= 0 {
		panic("camat: cores must be positive")
	}
	if epochCycles == 0 {
		epochCycles = DefaultEpochCycles
	}
	m := &Monitor{
		epochCycles: epochCycles,
		tMem:        tMem,
		cores:       make([]coreState, cores),
	}
	for i := range m.cores {
		m.cores[i].epochEnd = epochCycles
	}
	return m
}

// Record registers one LLC access from core starting at cycle start and
// taking latency cycles to complete (hit or miss; prefetch or demand).
//
//chromevet:hot
func (m *Monitor) Record(core mem.CoreID, start, latency mem.Cycle) {
	cs := &m.cores[core]
	if start < cs.epochStart || start >= cs.epochEnd {
		m.rollEpoch(cs, start.Div(m.epochCycles))
	}
	end := start + latency
	// Union of [start, end) with the already-covered prefix.
	from := start
	if cs.coveredUntil > from {
		from = cs.coveredUntil
	}
	if end > from {
		cs.activeCycles += (end - from).Uint64()
		cs.totalActive += (end - from).Uint64()
		cs.coveredUntil = end
	}
	cs.accesses++
	cs.totalAccesses++
}

// reset clears the epoch accumulators; the lifetime aggregates stay.
func (cs *coreState) reset() {
	cs.activeCycles = 0
	cs.accesses = 0
}

// rollEpoch finalizes the epoch verdict and starts accumulating a new one,
// newEpoch, which a record from a previous epoch rolls back to.
//
//chromevet:hot
func (m *Monitor) rollEpoch(cs *coreState, newEpoch uint64) {
	if cs.accesses > 0 {
		camat := float64(cs.activeCycles) / float64(cs.accesses)
		cs.obstructed = camat > m.tMem
	} else {
		cs.obstructed = false
	}
	cs.reset()
	cs.epochStart = mem.CycleOf(newEpoch) * m.epochCycles
	cs.epochEnd = cs.epochStart + m.epochCycles
}

// Obstructed reports whether the core was classified as LLC-obstructed in
// its most recently completed epoch.
//
//chromevet:hot
func (m *Monitor) Obstructed(core mem.CoreID) bool {
	if core.Int() < 0 || core.Int() >= len(m.cores) {
		return false
	}
	return m.cores[core].obstructed
}

// CAMAT returns the lifetime C-AMAT(LLC) of the core in cycles per access
// (0 when the core issued no LLC accesses).
func (m *Monitor) CAMAT(core mem.CoreID) float64 {
	cs := &m.cores[core]
	if cs.totalAccesses == 0 {
		return 0
	}
	return float64(cs.totalActive) / float64(cs.totalAccesses)
}

// TMem returns the configured obstruction threshold.
func (m *Monitor) TMem() float64 { return m.tMem }

// Cores returns the configured core count.
func (m *Monitor) Cores() int { return len(m.cores) }
