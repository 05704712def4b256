package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"chrome/internal/mem"
)

func TestDRAMRowHitVsMiss(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	cfg := DefaultDRAMConfig()
	first := d.Access(0x0, 0, false)
	if first != cfg.RowMiss+cfg.Burst {
		t.Fatalf("cold access latency %d, want %d", first, cfg.RowMiss+cfg.Burst)
	}
	// Same row, same bank (block 32 -> channel 0, bank 0, row 0), idle
	// channel: row hit.
	second := d.Access(32*64, 10_000, false)
	if second != cfg.RowHit+cfg.Burst {
		t.Fatalf("row-hit latency %d, want %d", second, cfg.RowHit+cfg.Burst)
	}
}

func TestDRAMBandwidthQueueing(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	// Flood one channel (block 0 and multiples of 2 share channel 0) in a
	// single cycle window: later requests must see queueing delay.
	var last mem.Cycle
	for i := 0; i < 100; i++ {
		addr := mem.Addr(i) * 2 * 64 // even block numbers -> channel 0
		last = d.Access(addr, 0, false)
	}
	firstFree := d.Access(0x2000*64, 0, false)
	if last <= firstFree/2 {
		t.Fatalf("100th flooded access (%d) should be far slower than steady state", last)
	}
	if d.BusyWait() == 0 {
		t.Fatal("queueing wait not accounted")
	}
}

func TestDRAMBacklogDrains(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	for i := 0; i < 100; i++ {
		d.Access(mem.Addr(i)*2*64, 0, false)
	}
	// Long after the burst, the channel must be idle again.
	lat := d.Access(0x40, 1_000_000, false)
	cfg := DefaultDRAMConfig()
	if lat > cfg.RowMiss+cfg.Burst {
		t.Fatalf("latency %d after drain, want unloaded %d", lat, cfg.RowMiss+cfg.Burst)
	}
}

func TestDRAMCountsReadsAndWrites(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	d.Access(0x0, 0, false)
	d.Access(0x40, 0, true)
	d.Access(0x80, 0, true)
	if d.Reads() != 1 || d.Writes() != 2 {
		t.Fatalf("reads=%d writes=%d, want 1/2", d.Reads(), d.Writes())
	}
}

func TestDRAMAvgLatencyPositive(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	if d.AvgLatency() <= 0 {
		t.Fatal("average latency must be positive")
	}
}

func TestDRAMValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero channels")
		}
	}()
	NewDRAM(DRAMConfig{Channels: 0, BanksPerChannel: 4})
}

// Property: DRAM latency is always at least the unloaded row-hit latency
// and monotone under increasing same-cycle load.
func TestDRAMLatencyLowerBound(t *testing.T) {
	cfg := DefaultDRAMConfig()
	f := func(addrs []uint16, cycleSeed uint16) bool {
		d := NewDRAM(cfg)
		cycle := mem.CycleOf(uint64(cycleSeed))
		for _, a := range addrs {
			lat := d.Access(mem.Addr(a)<<6, cycle, false)
			if lat < cfg.RowHit+cfg.Burst {
				return false
			}
			cycle += 3
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

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

// heapMSHR is the reference for mshr: the same heap, whose acquire loop
// also re-checks that the minimum lies past start and breaks once the file
// has room.
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

// TestMSHRMatchesHeap holds mshr to the reference: every acquire must
// return the same start cycle and leave the same stall count and occupancy.
// A named sequence drains the file and refills it; the random sequences,
// one per capacity, acquire out of cycle order, as the interleaved cores
// do, with latencies short enough to tie and long enough to fill the file
// and stall.
func TestMSHRMatchesHeap(t *testing.T) {
	type op struct{ start, latency mem.Cycle }
	run := func(t *testing.T, capacity int, ops []op) uint64 {
		t.Helper()
		m, ref := newMSHR(capacity), &heapMSHR{cap: capacity}
		for i, o := range ops {
			got, want := m.acquire(o.start), ref.acquire(o.start)
			if got != want || m.stalls != ref.stalls || len(m.busy) != len(ref.busy) {
				t.Fatalf("op %d acquire(%d): start %d, stalls %d, occupancy %d; reference: %d, %d, %d",
					i, o.start, got, m.stalls, len(m.busy), want, ref.stalls, len(ref.busy))
			}
			m.commit(got + o.latency)
			ref.commit(want + o.latency)
		}
		return ref.stalls
	}
	t.Run("drained-then-refilled", func(t *testing.T) {
		run(t, 1, []op{{0, 100}, {150, 150}, {200, 10}, {400, 1}})
	})
	for _, capacity := range []int{1, 16, 48, 256, 1024} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(capacity), 5))
			ops := make([]op, 20000)
			clock := uint64(1000)
			for i := range ops {
				clock += r.Uint64N(4)
				latency := 1 + r.Uint64N(8)
				if r.IntN(2) == 0 {
					latency = 1 + r.Uint64N(8*uint64(capacity)+100)
				}
				ops[i] = op{mem.CycleOf(clock - r.Uint64N(64)), mem.CycleOf(latency)}
			}
			if stalls := run(t, capacity, ops); stalls == 0 {
				t.Fatalf("no acquire stalled at capacity %d; the sequence does not fill the file", capacity)
			}
		})
	}
}
