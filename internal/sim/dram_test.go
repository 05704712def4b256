package sim

import (
	"testing"
	"testing/quick"

	"chrome/internal/mem"
)

// TestDRAMTableV locks the DRAM model to Table V's DDR4-3200 timing at
// 4 GHz, and T_mem, the C-AMAT obstruction threshold, to (50+150)/2 + 10.
func TestDRAMTableV(t *testing.T) {
	if dramChannels != 2 || dramBanks != 16 || 1<<dramRowShift != 128 {
		t.Fatalf("geometry %d channels x %d banks, %d-block rows; Table V is 2 x 16, 128",
			dramChannels, dramBanks, 1<<dramRowShift)
	}
	if dramRowHit != 50 || dramRowMiss != 150 || dramBurst != 10 {
		t.Fatalf("timing row hit %d, row miss %d, burst %d; Table V is 50, 150, 10",
			dramRowHit, dramRowMiss, dramBurst)
	}
	if got := NewDRAM().AvgLatency(); got != 110 {
		t.Fatalf("T_mem = %v, want 110", got)
	}
}

func TestDRAMRowHitVsMiss(t *testing.T) {
	d := NewDRAM()
	first := d.Access(0x0, 0, false)
	if first != dramRowMiss+dramBurst {
		t.Fatalf("cold access latency %d, want %d", first, dramRowMiss+dramBurst)
	}
	// Same row, same bank (block 32 -> channel 0, bank 0, row 0), idle
	// channel: row hit.
	second := d.Access(32*64, 10_000, false)
	if second != dramRowHit+dramBurst {
		t.Fatalf("row-hit latency %d, want %d", second, dramRowHit+dramBurst)
	}
	// The row's last block (96 + 32 = 128 blocks a row) hits too; the next
	// row's first block, in the same bank, misses and opens its row.
	for _, tc := range []struct {
		blk  uint64
		want mem.Cycle
	}{{96, dramRowHit}, {1 << dramRowShift, dramRowMiss}, {1<<dramRowShift + 32, dramRowHit}, {0, dramRowMiss}} {
		if got := d.Access(mem.Addr(tc.blk*64), 20_000, false); got != tc.want+dramBurst {
			t.Fatalf("block %d: latency %d, want %d", tc.blk, got, tc.want+dramBurst)
		}
	}
}

func TestDRAMBandwidthQueueing(t *testing.T) {
	d := NewDRAM()
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
}

func TestDRAMBacklogDrains(t *testing.T) {
	d := NewDRAM()
	for i := 0; i < 100; i++ {
		d.Access(mem.Addr(i)*2*64, 0, false)
	}
	// Long after the burst, the channel must be idle again.
	lat := d.Access(0x40, 1_000_000, false)
	if lat > dramRowMiss+dramBurst {
		t.Fatalf("latency %d after drain, want unloaded %d", lat, dramRowMiss+dramBurst)
	}
}

func TestDRAMCountsReadsAndWrites(t *testing.T) {
	d := NewDRAM()
	d.Access(0x0, 0, false)
	d.Access(0x40, 0, true)
	d.Access(0x80, 0, true)
	if d.Reads() != 1 || d.Writes() != 2 {
		t.Fatalf("reads=%d writes=%d, want 1/2", d.Reads(), d.Writes())
	}
}

func TestDRAMAvgLatencyPositive(t *testing.T) {
	d := NewDRAM()
	if d.AvgLatency() <= 0 {
		t.Fatal("average latency must be positive")
	}
}

// Property: DRAM latency is always at least the unloaded row-hit latency
// and monotone under increasing same-cycle load.
func TestDRAMLatencyLowerBound(t *testing.T) {
	f := func(addrs []uint16, cycleSeed uint16) bool {
		d := NewDRAM()
		cycle := mem.CycleOf(uint64(cycleSeed))
		for _, a := range addrs {
			lat := d.Access(mem.Addr(a)<<6, cycle, false)
			if lat < dramRowHit+dramBurst {
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
