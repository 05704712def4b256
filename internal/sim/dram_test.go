package sim

import (
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
	// The row's last block (96 + 32 = 128 blocks a row) hits too; the next
	// row's first block, in the same bank, misses and opens its row.
	for _, tc := range []struct {
		blk  uint64
		want mem.Cycle
	}{{96, cfg.RowHit}, {cfg.RowBlocks, cfg.RowMiss}, {cfg.RowBlocks + 32, cfg.RowHit}, {0, cfg.RowMiss}} {
		if got := d.Access(mem.Addr(tc.blk*64), 20_000, false); got != tc.want+cfg.Burst {
			t.Fatalf("block %d: latency %d, want %d", tc.blk, got, tc.want+cfg.Burst)
		}
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

// TestDRAMValidation: Access masks and shifts the block number, so a
// geometry that is not a power of two in every dimension is rejected.
func TestDRAMValidation(t *testing.T) {
	for _, bad := range []DRAMConfig{
		{Channels: 0, BanksPerChannel: 4, RowBlocks: 128},
		{Channels: 3, BanksPerChannel: 4, RowBlocks: 128},
		{Channels: 2, BanksPerChannel: -4, RowBlocks: 128},
		{Channels: 2, BanksPerChannel: 12, RowBlocks: 128},
		{Channels: 2, BanksPerChannel: 4, RowBlocks: 0},
		{Channels: 2, BanksPerChannel: 4, RowBlocks: 96},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v: expected a panic", bad)
				}
			}()
			NewDRAM(bad)
		}()
	}
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
