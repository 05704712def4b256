package sim

import "chrome/internal/mem"

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
	// RowBlocks is the number of cache blocks per DRAM row.
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
	chans    []dramChannel
	openRow  []uint64 // per (channel, bank); rowID+1, 0 = closed
	reads    uint64
	writes   uint64
	busyWait uint64 // cycles of queueing delay charged
}

type dramChannel struct {
	epoch uint64 // current window index
	work  uint64 // cycles of transfer work booked in the window (w/ carry)
}

// NewDRAM builds the DRAM model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	if cfg.Channels <= 0 || cfg.BanksPerChannel <= 0 {
		panic("sim: DRAM channels and banks must be positive")
	}
	return &DRAM{
		cfg:     cfg,
		chans:   make([]dramChannel, cfg.Channels),
		openRow: make([]uint64, cfg.Channels*cfg.BanksPerChannel),
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
	row := blk / d.cfg.RowBlocks

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
	var wait mem.Cycle
	if c.work > dramEpochLen {
		wait = mem.CycleOf(c.work - dramEpochLen)
		d.busyWait += wait.Uint64()
	}
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

// mshr models a miss-status-holding-register file: it bounds the number of
// outstanding misses at a level. Acquire returns the possibly-delayed start
// cycle; Commit registers the completion time.
//
// busy is kept as a binary min-heap on completion cycle, so pruning
// completed entries pops only what expired (amortized O(1) per access)
// instead of rescanning the whole file, which read slower at 16 cores
// (DESIGN.md §7). The file holds a *multiset* of completion times: prune
// drops every entry ≤ now and acquire reads the minimum, both
// order-independent, so the heap layout changes no result.
type mshr struct {
	cap  int
	busy []mem.Cycle // min-heap of completion cycles of outstanding misses
	// stalls counts how many acquisitions had to wait for a free entry.
	stalls uint64
	// mshrCheck is the simcheck sanitizer's accounting (empty in normal
	// builds).
	mshrCheck
}

func newMSHR(entries int) *mshr {
	if entries <= 0 {
		panic("sim: MSHR entries must be positive")
	}
	return &mshr{cap: entries, busy: make([]mem.Cycle, 0, entries)}
}

// acquire prunes completed entries at `start` and, if the file is full,
// delays start until the earliest outstanding miss completes.
//
//chromevet:hot
func (m *mshr) acquire(start mem.Cycle) mem.Cycle {
	m.noteAcquire()
	m.prune(start)
	for len(m.busy) >= m.cap {
		// The heap minimum is > start, because prune just removed
		// everything ≤ start; pruning at it frees at least that entry.
		start = m.busy[0]
		m.stalls++
		m.prune(start)
	}
	return start
}

// commit registers an outstanding miss completing at the given cycle.
//
//chromevet:hot
func (m *mshr) commit(complete mem.Cycle) {
	// acquire returned only once len(busy) < cap, and newMSHR pre-sizes
	// busy to cap, so the append never reallocates.
	m.busy = append(m.busy, complete)
	// Sift the new entry up to its heap position.
	for i := len(m.busy) - 1; i > 0; {
		p := (i - 1) / 2
		if m.busy[p] <= m.busy[i] {
			break
		}
		m.busy[p], m.busy[i] = m.busy[i], m.busy[p]
		i = p
	}
	m.noteCommit(len(m.busy), m.cap)
}

// prune drops entries that completed at or before now.
//
//chromevet:hot
func (m *mshr) prune(now mem.Cycle) {
	for len(m.busy) > 0 && m.busy[0] <= now {
		last := len(m.busy) - 1
		m.busy[0] = m.busy[last]
		m.busy = m.busy[:last]
		// Sift the moved entry down.
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

// BusyWait returns the cumulative cycles requests spent waiting for a busy
// channel (a bandwidth-saturation indicator).
func (d *DRAM) BusyWait() uint64 { return d.busyWait }
