package experiments

import (
	"sync/atomic"

	"chrome/internal/sim"
)

// simInstructions accumulates retired instructions across every simulation
// cell this process runs (parallel cells included), feeding simulated-MIPS
// (retired instructions per wall-second) reporting in cmd/experiments and
// the bench harness. It is a monotonic telemetry counter: no simulation
// result ever reads it, so it cannot perturb experiment output.
var simInstructions atomic.Uint64

// countInstructions records a finished cell's retired-instruction total.
func countInstructions(res sim.Result) {
	simInstructions.Add(res.TotalInstructions.Uint64())
}

// SimulatedInstructions returns the total instructions simulated by this
// process so far. Callers compute MIPS as a delta over wall-clock time.
func SimulatedInstructions() uint64 { return simInstructions.Load() }
