package camat

import (
	"testing"
	"testing/quick"

	"chrome/internal/mem"
)

func TestDisjointIntervals(t *testing.T) {
	m := New(1, 100, 1000)
	m.Record(0, 0, 10)
	m.Record(0, 50, 10)
	if got := m.CAMAT(0); got != 10 {
		t.Fatalf("C-AMAT = %v, want 10 (two disjoint 10-cycle accesses)", got)
	}
}

func TestOverlappingIntervalsCountOnce(t *testing.T) {
	m := New(1, 100, 1000)
	// Two fully overlapping accesses: active cycles = 10, accesses = 2.
	m.Record(0, 0, 10)
	m.Record(0, 0, 10)
	if got := m.CAMAT(0); got != 5 {
		t.Fatalf("C-AMAT = %v, want 5 (perfect overlap halves the cost)", got)
	}
}

func TestPartialOverlap(t *testing.T) {
	m := New(1, 100, 1000)
	m.Record(0, 0, 10) // [0,10)
	m.Record(0, 5, 10) // [5,15) -> adds 5
	m.Record(0, 12, 4) // [12,16) -> adds 1
	// Union = [0,16) = 16 active cycles over 3 accesses.
	if got := m.CAMAT(0); got != 16.0/3 {
		t.Fatalf("C-AMAT = %v, want %v", got, 16.0/3)
	}
}

func TestObstructionVerdictPerEpoch(t *testing.T) {
	m := New(1, 50, 100) // epoch 100 cycles, threshold 50
	// Epoch 0: serialized accesses, C-AMAT = 60 > 50.
	m.Record(0, 0, 60)
	// Crossing into epoch 1 finalizes epoch 0's verdict.
	m.Record(0, 100, 10)
	if !m.Obstructed(0) {
		t.Fatal("core should be obstructed after a 60-cycle/access epoch")
	}
	// Epoch 1 is cheap; crossing into epoch 2 clears the verdict.
	m.Record(0, 200, 10)
	if m.Obstructed(0) {
		t.Fatal("core should not be obstructed after a 10-cycle/access epoch")
	}
}

// TestLateRecordRollsEpochBack pins how a record that starts in an earlier
// epoch than the core's current one is handled: it rolls the core's epoch
// back, finalizing a verdict over the accesses so far (ROADMAP, "Make
// C-AMAT exact"). The per-core epoch bounds that spare Record its divide
// must keep this exactly, as every digest depends on it.
func TestLateRecordRollsEpochBack(t *testing.T) {
	m := New(1, 50, 100)
	m.Record(0, 150, 80) // epoch 1, 80 cycles per access
	if m.Obstructed(0) {
		t.Fatal("no epoch completed yet: not obstructed")
	}
	m.Record(0, 90, 5) // late: epoch 0, rolls back and judges epoch 1
	if !m.Obstructed(0) {
		t.Fatal("the roll-back to epoch 0 should have judged epoch 1 obstructed")
	}
	m.Record(0, 199, 5) // epoch 1 again: judges the roll-back's one cheap access
	if m.Obstructed(0) {
		t.Fatal("the roll forward should have judged the 5-cycle access not obstructed")
	}
}

func TestEmptyEpochNotObstructed(t *testing.T) {
	m := New(1, 50, 100)
	m.Record(0, 0, 200) // epoch 0, expensive
	// Skip several epochs with no accesses: the verdict comes from epoch 0,
	// then an access in epoch 5 re-evaluates.
	m.Record(0, 500, 10)
	if !m.Obstructed(0) {
		t.Fatal("verdict from the last completed epoch with traffic should hold")
	}
}

func TestPerCoreIndependence(t *testing.T) {
	m := New(2, 50, 100)
	m.Record(0, 0, 80)
	m.Record(1, 0, 5)
	m.Record(0, 150, 10)
	m.Record(1, 150, 10)
	if !m.Obstructed(0) {
		t.Fatal("core 0 should be obstructed")
	}
	if m.Obstructed(1) {
		t.Fatal("core 1 should not be obstructed")
	}
}

func TestOutOfRangeCore(t *testing.T) {
	m := New(1, 50, 100)
	if m.Obstructed(-1) || m.Obstructed(5) {
		t.Fatal("out-of-range cores must report not obstructed")
	}
}

func TestNoAccessesCAMATZero(t *testing.T) {
	m := New(1, 50, 100)
	if m.CAMAT(0) != 0 {
		t.Fatal("C-AMAT with no accesses should be 0")
	}
}

func TestConstructorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive core count")
		}
	}()
	New(0, 50, 100)
}

func TestDefaultEpoch(t *testing.T) {
	m := New(1, 50, 0)
	if m.epochCycles != DefaultEpochCycles {
		t.Fatalf("default epoch = %d, want %d", m.epochCycles, DefaultEpochCycles)
	}
	if m.TMem() != 50 || m.Cores() != 1 {
		t.Fatal("accessors wrong")
	}
}

// Property: C-AMAT is never larger than the mean latency (overlap can only
// reduce the active-cycle union) and never negative.
func TestCAMATBoundedByMeanLatency(t *testing.T) {
	f := func(latencies []uint8) bool {
		m := New(1, 100, 1<<62)
		var start, sum mem.Cycle
		n := 0
		for _, l := range latencies {
			lat := mem.Cycle(l%100) + 1
			m.Record(0, start, lat)
			start += mem.Cycle(l % 7) // sometimes same cycle, sometimes ahead
			sum += lat
			n++
		}
		if n == 0 {
			return true
		}
		c := m.CAMAT(0)
		return c > 0 && c <= float64(sum)/float64(n)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
