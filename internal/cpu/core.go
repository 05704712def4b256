// Package cpu implements the trace-driven core timing model: a 6-wide,
// 512-entry-ROB in-order-commit pipeline abstraction that reproduces the
// memory-level-parallelism behaviour cache studies depend on — overlapping
// independent misses bounded by the ROB, serialized dependent (pointer
// chasing) loads, and issue-bandwidth limits — without a full
// out-of-order scheduler (DESIGN.md §4.5).
package cpu

import (
	"chrome/internal/mem"
	"chrome/internal/trace"
)

// MemFunc performs a memory access against the hierarchy at the given
// issue cycle and returns its load-to-use latency in cycles.
type MemFunc func(core mem.CoreID, rec trace.Record, cycle mem.Cycle) mem.Cycle

// Config parameterizes a core.
type Config struct {
	// Width is the fetch/execute/commit width (Table V: 6).
	Width int
	// ROB is the reorder-buffer capacity (Table V: 512).
	ROB int
}

// DefaultConfig returns the paper's core configuration.
func DefaultConfig() Config { return Config{Width: 6, ROB: 512} }

// Core executes one trace deterministically against a memory hierarchy.
type Core struct {
	id  mem.CoreID
	cfg Config
	gen trace.Generator
	mem MemFunc

	// retireRing[i % ROB] holds the retire cycle of instruction i; since
	// commit is in order, slot i%ROB still holds instruction i-ROB's
	// retire cycle when instruction i issues, giving the ROB-full stall.
	retireRing []mem.Cycle
	robLen     mem.Instr // len(retireRing), pre-converted for the hot path
	pos        mem.Instr // instructions issued so far
	lastRetire mem.Cycle
	lastLoad   mem.Cycle // completion cycle of the most recent load

	curCycle mem.Cycle // issue frontier
	issued   int       // instructions issued in curCycle

	instrRetired mem.Instr
	memAccesses  uint64
	loadCount    uint64
	loadLatSum   mem.Cycle

	// measurement window bookkeeping
	winStartInstr mem.Instr
	winStartCycle mem.Cycle
}

// New builds a core over the given trace generator and memory callback.
func New(id mem.CoreID, cfg Config, gen trace.Generator, memFn MemFunc) *Core { //chromevet:allow aliasshare -- ownership transfer: sim.New hands each core its own generator
	if cfg.Width <= 0 || cfg.ROB <= 0 {
		panic("cpu: width and ROB must be positive")
	}
	return &Core{
		id:         id,
		cfg:        cfg,
		gen:        gen,
		mem:        memFn,
		retireRing: make([]mem.Cycle, cfg.ROB),
		robLen:     mem.InstrOf(uint64(cfg.ROB)),
	}
}

// ID returns the core index.
func (c *Core) ID() mem.CoreID { return c.id }

// Cycle returns the core's issue-frontier cycle (its scheduling time).
func (c *Core) Cycle() mem.Cycle { return c.curCycle }

// RetireCycle returns the retire cycle of the last retired instruction.
func (c *Core) RetireCycle() mem.Cycle { return c.lastRetire }

// Instructions returns the number of retired instructions.
func (c *Core) Instructions() mem.Instr { return c.instrRetired }

// MemAccesses returns the number of memory instructions executed.
func (c *Core) MemAccesses() uint64 { return c.memAccesses }

// issueSlot computes the issue cycle for the next instruction honoring
// bandwidth, ROB occupancy, and (for dependent loads) the previous load.
//
//chromevet:hot
func (c *Core) issueSlot(minCycle mem.Cycle) mem.Cycle {
	if c.pos >= c.robLen {
		if r := c.retireRing[c.pos%c.robLen]; r > minCycle {
			minCycle = r
		}
	}
	if minCycle > c.curCycle {
		c.curCycle = minCycle
		c.issued = 0
	} else if c.issued >= c.cfg.Width {
		c.curCycle++
		c.issued = 0
	}
	c.issued++
	return c.curCycle
}

// completeOne books an instruction's completion and in-order retirement.
//
//chromevet:hot
func (c *Core) completeOne(complete mem.Cycle) {
	retire := complete
	if c.lastRetire > retire {
		retire = c.lastRetire
	}
	c.retireRing[c.pos%c.robLen] = retire
	c.lastRetire = retire
	c.pos++
	c.instrRetired++
}

// Step executes one trace record: its compute-gap instructions followed by
// the memory instruction itself.
//
//chromevet:hot
func (c *Core) Step() {
	rec := c.gen.Next()
	for i := uint8(0); i < rec.Gap; i++ {
		issue := c.issueSlot(0)
		c.completeOne(issue + 1)
	}
	var minCycle mem.Cycle
	if rec.Dependent && c.lastLoad > 0 {
		minCycle = c.lastLoad
	}
	issue := c.issueSlot(minCycle)
	lat := c.mem(c.id, rec, issue)
	c.memAccesses++
	if rec.Write {
		// Stores retire through the store buffer: their hierarchy effects
		// (state, occupancy) are charged by MemFunc, but they do not stall
		// commit.
		c.completeOne(issue + 1)
		return
	}
	complete := issue + lat
	c.lastLoad = complete
	c.loadCount++
	c.loadLatSum += lat
	c.completeOne(complete)
}

// BeginWindow marks the start of a measurement window (end of warmup).
func (c *Core) BeginWindow() {
	c.winStartInstr = c.instrRetired
	c.winStartCycle = c.lastRetire
}

// WindowInstructions returns instructions retired since BeginWindow.
func (c *Core) WindowInstructions() mem.Instr { return c.instrRetired - c.winStartInstr }

// WindowCycles returns cycles elapsed since BeginWindow.
func (c *Core) WindowCycles() mem.Cycle {
	if c.lastRetire <= c.winStartCycle {
		return 0
	}
	return c.lastRetire - c.winStartCycle
}

// AvgLoadLatency returns the mean load-to-use latency over the core's
// lifetime in cycles.
func (c *Core) AvgLoadLatency() float64 {
	if c.loadCount == 0 {
		return 0
	}
	return float64(c.loadLatSum.Uint64()) / float64(c.loadCount)
}

// IPC returns instructions per cycle over the measurement window.
func (c *Core) IPC() float64 {
	cyc := c.WindowCycles()
	if cyc == 0 {
		return 0
	}
	return float64(c.WindowInstructions().Uint64()) / float64(cyc.Uint64())
}
