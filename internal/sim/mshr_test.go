package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"chrome/internal/mem"
)

func TestMSHRBacklog(t *testing.T) {
	m := newMSHR(2)
	if got := m.acquire(100); got != 100 {
		t.Fatalf("empty MSHR delayed acquisition to %d", got)
	}
	m.commit(200)
	if got := m.acquire(100); got != 100 {
		t.Fatalf("half-full MSHR delayed acquisition to %d", got)
	}
	m.commit(300)
	// Full at cycle 150: must wait for the earliest completion (200).
	if got := m.acquire(150); got != 200 {
		t.Fatalf("full MSHR acquire = %d, want 200", got)
	}
	if m.stalls == 0 {
		t.Fatal("stall not recorded")
	}
	// After both complete, no delay.
	if got := m.acquire(500); got != 500 {
		t.Fatalf("drained MSHR acquire = %d, want 500", got)
	}
}

func TestMSHRPrunesCompleted(t *testing.T) {
	m := newMSHR(1)
	m.acquire(0)
	m.commit(50)
	if got := m.acquire(60); got != 60 {
		t.Fatalf("completed entry not pruned: acquire = %d", got)
	}
}

func TestMSHRValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive MSHR size")
		}
	}()
	newMSHR(0)
}

// Property: acquire never returns a cycle earlier than requested, and with
// k < cap outstanding entries there is never a delay.
func TestMSHRAcquireMonotone(t *testing.T) {
	f := func(completions []uint16, start uint16) bool {
		m := newMSHR(4)
		for i, c := range completions {
			if i >= 3 {
				break
			}
			// Register the acquire half of the discipline without its
			// timing side effects (keeps the simcheck accounting paired).
			m.noteAcquire()
			m.commit(mem.CycleOf(uint64(c)))
		}
		got := m.acquire(mem.CycleOf(uint64(start)))
		return got == mem.CycleOf(uint64(start))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// heapMSHR is the reference for mshr: a binary min-heap of completion
// cycles that prunes at every acquire and, while full, waits for the
// minimum.
type heapMSHR struct {
	cap    int
	busy   []mem.Cycle
	stalls uint64
}

func (m *heapMSHR) acquire(start mem.Cycle) mem.Cycle {
	m.prune(start)
	for len(m.busy) >= m.cap {
		if earliest := m.busy[0]; earliest > start {
			start = earliest
		}
		m.stalls++
		m.prune(start)
	}
	return start
}

func (m *heapMSHR) commit(complete mem.Cycle) {
	m.busy = append(m.busy, complete)
	for i := len(m.busy) - 1; i > 0; {
		p := (i - 1) / 2
		if m.busy[p] <= m.busy[i] {
			break
		}
		m.busy[p], m.busy[i] = m.busy[i], m.busy[p]
		i = p
	}
}

func (m *heapMSHR) prune(now mem.Cycle) {
	for len(m.busy) > 0 && m.busy[0] <= now {
		last := len(m.busy) - 1
		m.busy[0] = m.busy[last]
		m.busy = m.busy[:last]
		for i := 0; ; {
			l := 2*i + 1
			if l >= last {
				break
			}
			if r := l + 1; r < last && m.busy[r] < m.busy[l] {
				l = r
			}
			if m.busy[i] <= m.busy[l] {
				break
			}
			m.busy[i], m.busy[l] = m.busy[l], m.busy[i]
			i = l
		}
	}
}

// mshrOp is one acquire at start, then a commit at the returned start plus
// latency; latency 0 leaves the acquire uncommitted, so its prune point is
// the only trace it leaves.
type mshrOp struct{ start, latency mem.Cycle }

// outOfOrderOps draws n ops the way interleaved cores reach a file: the
// clock advances 0–3 cycles per op and each start is up to early-1 cycles
// before it; latency draws each op's miss latency.
func outOfOrderOps(r *rand.Rand, n int, early uint64, latency func() uint64) []mshrOp {
	ops := make([]mshrOp, n)
	clock := uint64(1000)
	for i := range ops {
		clock += r.Uint64N(4)
		l := latency()
		ops[i] = mshrOp{mem.CycleOf(clock - r.Uint64N(early)), mem.CycleOf(l)}
	}
	return ops
}

// mshrRun summarizes one sequence: acquires that stalled, acquires that
// started before an earlier acquire's start, the reference's largest
// occupancy, and fast-path acquires whose prune point folded into the one
// an uncommitted acquire had left pending.
type mshrRun struct{ stalls, outOfOrder, maxOccupancy, folded int }

// runMSHR holds m to ref over ops: every acquire must return the same start
// cycle and leave the same stall count and exact occupancy, and no op may
// grow m's buffers.
func runMSHR(t *testing.T, m *mshr, ref *heapMSHR, ops []mshrOp) mshrRun {
	t.Helper()
	pend, pts := cap(m.pend), cap(m.pts)
	var run mshrRun
	var latest mem.Cycle
	for i, o := range ops {
		if i > 0 && o.start < latest {
			run.outOfOrder++
		}
		latest = max(latest, o.start)
		held := len(m.pts) > 0 && i > 0 && ops[i-1].latency == 0
		npts := len(m.pts)
		got, want := m.acquire(o.start), ref.acquire(o.start)
		if occ := m.occupancy(); got != want || m.stalls != ref.stalls || occ != len(ref.busy) {
			t.Fatalf("op %d acquire(%d): start %d, stalls %d, occupancy %d; reference: %d, %d, %d",
				i, o.start, got, m.stalls, occ, want, ref.stalls, len(ref.busy))
		}
		if held && len(m.pts) == npts {
			run.folded++
		}
		run.maxOccupancy = max(run.maxOccupancy, len(ref.busy))
		if o.latency > 0 {
			m.commit(got + o.latency)
			ref.commit(want + o.latency)
			if occ := m.occupancy(); occ != len(ref.busy) {
				t.Fatalf("op %d commit(%d): occupancy %d, reference %d", i, got+o.latency, occ, len(ref.busy))
			}
		}
		if n := len(m.pts); n != 0 && n != len(m.pend)+1 {
			t.Fatalf("op %d: %d prune points for %d pending commits", i, n, len(m.pend))
		}
		if cap(m.pend) != pend || cap(m.pts) != pts || cap(m.live) > len(m.buf) {
			t.Fatalf("op %d: buffers grew to %d/%d/%d from %d/%d/%d",
				i, cap(m.pend), cap(m.pts), cap(m.live), pend, pts, len(m.buf))
		}
	}
	run.stalls = int(ref.stalls)
	return run
}

// TestMSHRMatchesHeap holds mshr to the heap it replaced. The random
// sequences, one per capacity, acquire out of cycle order, as the
// interleaved cores do, with latencies short enough to tie and long
// enough to fill the file and stall. The named regimes are the
// simulator's: an always-full L1-sized file, an LLC-sized file holding
// hundreds of misses that mostly arrive out of order, runs of acquires
// with no commit between them, and commits before any acquire.
func TestMSHRMatchesHeap(t *testing.T) {
	files := func(capacity int) (*mshr, *heapMSHR) {
		return newMSHR(capacity), &heapMSHR{cap: capacity}
	}
	t.Run("drained-then-refilled", func(t *testing.T) {
		m, ref := files(1)
		runMSHR(t, m, ref, []mshrOp{{0, 100}, {150, 150}, {200, 10}, {400, 1}})
	})
	for _, capacity := range []int{1, 16, 48, 256, 1024} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(capacity), 5))
			ops := outOfOrderOps(r, 20000, 64, func() uint64 {
				latency := 1 + r.Uint64N(8)
				if r.IntN(2) == 0 {
					latency = 1 + r.Uint64N(8*uint64(capacity)+100)
				}
				return latency
			})
			m, ref := files(capacity)
			if run := runMSHR(t, m, ref, ops); run.stalls == 0 {
				t.Fatalf("no acquire stalled at capacity %d; the sequence does not fill the file", capacity)
			}
		})
	}
	t.Run("always-full-cap16", func(t *testing.T) {
		r := rand.New(rand.NewPCG(16, 11))
		ops := outOfOrderOps(r, 20000, 64, func() uint64 { return 100 + r.Uint64N(200) })
		m, ref := files(16)
		if run := runMSHR(t, m, ref, ops); run.stalls*5 < len(ops)*4 {
			t.Fatalf("%d of %d acquires stalled, want at least 80%%", run.stalls, len(ops))
		}
	})
	t.Run("cap1024-out-of-order", func(t *testing.T) {
		r := rand.New(rand.NewPCG(1024, 11))
		ops := outOfOrderOps(r, 20000, 512, func() uint64 { return 1 + r.Uint64N(1000) })
		m, ref := files(1024)
		run := runMSHR(t, m, ref, ops)
		if run.outOfOrder*10 < len(ops)*9 || run.maxOccupancy < 200 {
			t.Fatalf("%d of %d acquires out of order (want 90%%), at most %d outstanding (want hundreds)",
				run.outOfOrder, len(ops), run.maxOccupancy)
		}
	})
	t.Run("acquire-runs", func(t *testing.T) {
		r := rand.New(rand.NewPCG(48, 11))
		ops := outOfOrderOps(r, 20000, 64, func() uint64 {
			if r.IntN(4) != 0 {
				return 0
			}
			return 1 + r.Uint64N(600)
		})
		m, ref := files(48)
		if run := runMSHR(t, m, ref, ops); run.folded == 0 || run.stalls == 0 {
			t.Fatalf("%d prune points folded, %d stalls; the sequence needs both", run.folded, run.stalls)
		}
	})
	t.Run("commit-before-acquire", func(t *testing.T) {
		m, ref := files(4)
		for _, c := range []mem.Cycle{1030, 1010, 1020} {
			m.noteAcquire() // keeps the simcheck accounting paired
			m.commit(c)
			ref.commit(c)
		}
		r := rand.New(rand.NewPCG(4, 11))
		runMSHR(t, m, ref, outOfOrderOps(r, 2000, 64, func() uint64 { return 1 + r.Uint64N(40) }))
	})
}

// BenchmarkMSHR times one acquire and its commit (ns/op) on
// outOfOrderOps streams, in a mostly-idle regime (latencies up to the
// capacity, so about a third of the file is in use) and an always-full one
// (latencies up to 16× the capacity).
func BenchmarkMSHR(b *testing.B) {
	for _, regime := range []struct {
		name  string
		scale uint64
	}{{"idle", 1}, {"full", 16}} {
		for _, capacity := range []int{16, 48, 256, 1024} {
			b.Run(fmt.Sprintf("%s/cap=%d", regime.name, capacity), func(b *testing.B) {
				r := rand.New(rand.NewPCG(uint64(capacity), 7))
				longest := regime.scale * uint64(capacity)
				ops := outOfOrderOps(r, 1<<14, 64, func() uint64 { return 1 + r.Uint64N(longest) })
				lap := ops[len(ops)-1].start + 64
				m := newMSHR(capacity)
				var base mem.Cycle
				for i := 0; b.Loop(); i++ {
					o := ops[i%len(ops)]
					if i%len(ops) == 0 {
						base += lap
					}
					m.commit(m.acquire(base+o.start) + o.latency)
				}
			})
		}
	}
}
