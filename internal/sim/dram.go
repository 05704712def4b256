package sim

import "chrome/internal/mem"

// The main-memory model of Table V: DDR4-3200, 2 channels, 2 ranks per
// channel and 8 banks per rank; tRP = tRCD = tCAS = 12.5 ns, i.e. 50 core
// cycles at 4 GHz. The counts are powers of two: Access masks and shifts
// the block number by them.
const (
	dramChannels           = 2   // independent channels
	dramBanks              = 16  // ranks × banks, per channel
	dramRowShift           = 7   // 128 blocks (8KB) a row: a block's row is blk >> dramRowShift
	dramRowHit   mem.Cycle = 50  // tCAS, the row is open
	dramRowMiss  mem.Cycle = 150 // tRP + tRCD + tCAS, precharge and activate
	dramBurst    mem.Cycle = 10  // channel occupancy of a 64B transfer over 64 bits at 4 GHz
)

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
	chans   [dramChannels]dramChannel
	openRow [dramChannels * dramBanks]uint64 // per (channel, bank); rowID+1, 0 = closed
	reads   uint64
	writes  uint64
}

type dramChannel struct {
	epoch uint64 // current window index
	work  uint64 // cycles of transfer work booked in the window (w/ carry)
}

// NewDRAM builds the DRAM model with every channel idle and every row
// closed.
func NewDRAM() *DRAM { return &DRAM{} }

// Access performs one 64-byte transfer starting no earlier than cycle and
// returns its total latency (queueing + row access + burst).
//
//chromevet:hot
func (d *DRAM) Access(addr mem.Addr, cycle mem.Cycle, write bool) mem.Cycle {
	blk := addr.Block().Uint64()
	ch := int(blk & (dramChannels - 1))
	bank := int((blk >> 1) & (dramBanks - 1))
	row := blk >> dramRowShift

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
	c.work += dramBurst.Uint64()

	bi := ch*dramBanks + bank
	var lat mem.Cycle
	if d.openRow[bi] == row+1 {
		lat = dramRowHit
	} else {
		lat = dramRowMiss
		d.openRow[bi] = row + 1
	}
	if write {
		d.writes++
	} else {
		d.reads++
	}
	return wait + lat + dramBurst
}

// Reads returns the number of read transfers served.
func (d *DRAM) Reads() uint64 { return d.reads }

// Writes returns the number of write transfers served.
func (d *DRAM) Writes() uint64 { return d.writes }

// AvgLatency returns the unloaded main-memory latency, the mean of a row
// hit and a row miss plus one burst (110 cycles), used as the C-AMAT
// obstruction threshold T_mem.
func (d *DRAM) AvgLatency() float64 {
	return float64((dramRowHit+dramRowMiss).Uint64())/2 + float64(dramBurst.Uint64())
}
