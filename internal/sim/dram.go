package sim

import (
	"fmt"
	"math/bits"

	"chrome/internal/mem"
)

// DRAMConfig describes the main-memory model (Table V: DDR4-3200, 2
// channels, 2 ranks/channel, 8 banks/rank; tRP = tRCD = tCAS = 12.5 ns,
// i.e. 50 core cycles at 4 GHz).
type DRAMConfig struct {
	// Channels is the number of independent channels (power of two).
	Channels int
	// BanksPerChannel is ranks × banks (power of two).
	BanksPerChannel int
	// RowHit is the access latency in core cycles when the row is open.
	RowHit mem.Cycle
	// RowMiss is the access latency when a precharge+activate is needed.
	RowMiss mem.Cycle
	// Burst is the channel occupancy per 64-byte transfer in core cycles.
	Burst mem.Cycle
	// RowBlocks is the number of cache blocks per DRAM row (power of two).
	RowBlocks uint64
}

// DefaultDRAMConfig returns the Table V-derived DRAM model.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		Channels:        2,
		BanksPerChannel: 16,
		RowHit:          50,  // tCAS
		RowMiss:         150, // tRP + tRCD + tCAS
		Burst:           10,  // 64B over a 64-bit DDR4-3200 channel at 4GHz
		RowBlocks:       128, // 8KB rows
	}
}

// dramEpochLen is the window of the fluid bandwidth model in cycles.
const dramEpochLen = 256

// DRAM is a banked main-memory timing model with per-channel bandwidth
// and per-bank open-row state.
//
// Channel bandwidth uses a fluid (epoch-based) model rather than a
// next-free-cycle scalar: the simulator's cores interleave at
// memory-latency granularity, so requests reach the DRAM slightly out of
// simulated-time order, and a scalar next-free cycle would charge
// early-timestamped requests for occupancy created by later-timestamped
// ones. The fluid model counts transfers per fixed window (with overflow
// spilling into following windows) and derives the queueing delay from the
// window's excess work — an order-independent approximation of a
// work-conserving channel queue.
type DRAM struct {
	cfg      DRAMConfig
	rowShift uint // log2(RowBlocks): a block's row is blk >> rowShift
	chans    []dramChannel
	openRow  []uint64 // per (channel, bank); rowID+1, 0 = closed
	reads    uint64
	writes   uint64
}

type dramChannel struct {
	epoch uint64 // current window index
	work  uint64 // cycles of transfer work booked in the window (w/ carry)
}

// NewDRAM builds the DRAM model. Channels, BanksPerChannel and RowBlocks
// must be powers of two: Access masks and shifts the block number by them.
func NewDRAM(cfg DRAMConfig) *DRAM {
	pow2 := func(n uint64) bool { return n > 0 && n&(n-1) == 0 }
	if cfg.Channels <= 0 || cfg.BanksPerChannel <= 0 ||
		!pow2(uint64(cfg.Channels)) || !pow2(uint64(cfg.BanksPerChannel)) || !pow2(cfg.RowBlocks) {
		panic(fmt.Sprintf("sim: DRAM channels (%d), banks per channel (%d) and row blocks (%d) must be positive powers of two",
			cfg.Channels, cfg.BanksPerChannel, cfg.RowBlocks))
	}
	return &DRAM{
		cfg:      cfg,
		rowShift: uint(bits.TrailingZeros64(cfg.RowBlocks)),
		chans:    make([]dramChannel, cfg.Channels),
		openRow:  make([]uint64, cfg.Channels*cfg.BanksPerChannel),
	}
}

// Access performs one 64-byte transfer starting no earlier than cycle and
// returns its total latency (queueing + row access + burst).
//
//chromevet:hot
func (d *DRAM) Access(addr mem.Addr, cycle mem.Cycle, write bool) mem.Cycle {
	blk := addr.Block().Uint64()
	ch := int(blk & uint64(d.cfg.Channels-1))
	bank := int((blk >> 1) & uint64(d.cfg.BanksPerChannel-1))
	row := blk >> d.rowShift

	c := &d.chans[ch]
	epoch := cycle.Div(dramEpochLen)
	if epoch != c.epoch {
		if epoch > c.epoch {
			// Drain the carried backlog at full channel rate.
			drained := (epoch - c.epoch) * dramEpochLen
			if c.work > drained {
				c.work -= drained
			} else {
				c.work = 0
			}
			c.epoch = epoch
		}
		// Requests timestamped before the current window (out-of-order
		// arrivals) are booked into the current window.
	}
	wait := mem.CycleOf(max(c.work, dramEpochLen) - dramEpochLen)
	c.work += d.cfg.Burst.Uint64()

	bi := ch*d.cfg.BanksPerChannel + bank
	var lat mem.Cycle
	if d.openRow[bi] == row+1 {
		lat = d.cfg.RowHit
	} else {
		lat = d.cfg.RowMiss
		d.openRow[bi] = row + 1
	}
	if write {
		d.writes++
	} else {
		d.reads++
	}
	return wait + lat + d.cfg.Burst
}

// Reads returns the number of read transfers served.
func (d *DRAM) Reads() uint64 { return d.reads }

// Writes returns the number of write transfers served.
func (d *DRAM) Writes() uint64 { return d.writes }

// AvgLatency returns a configuration-level estimate of the unloaded main
// memory latency, used as the C-AMAT obstruction threshold T_mem.
func (d *DRAM) AvgLatency() float64 {
	return float64((d.cfg.RowHit+d.cfg.RowMiss).Uint64())/2 + float64(d.cfg.Burst.Uint64())
}
