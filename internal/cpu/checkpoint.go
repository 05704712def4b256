package cpu

import (
	"fmt"

	"chrome/internal/mem"
	"chrome/internal/state"
)

// Checkpoint support: a core's mutable state is its pipeline bookkeeping
// plus the position of its trace generator. Only replayers expose a seekable
// cursor — a live generator's internal RNG state cannot be captured — so
// checkpointing a core requires a replayed recording (the experiments
// runner's only feed) and refuses otherwise.

// seekableGen is the cursor contract trace.Replayer satisfies.
type seekableGen interface {
	Pos() int
	Seek(i int)
	Len() int
}

// Gen returns the core's trace generator (checkpoint/test plumbing).
func (c *Core) Gen() interface{ Name() string } { return c.gen }

// SaveState implements cache.Checkpointable.
func (c *Core) SaveState(enc *state.Enc) error {
	g, ok := c.gen.(seekableGen)
	if !ok {
		return fmt.Errorf("cpu: core %d runs live generator %q; checkpointing requires a replayed recording (trace.Recording.Replayer)",
			c.id.Int(), c.gen.Name())
	}
	enc.Int(g.Pos())
	enc.Int(len(c.retireRing))
	for _, r := range c.retireRing {
		enc.U64(r.Uint64())
	}
	enc.U64(c.pos.Uint64())
	enc.U64(c.lastRetire.Uint64())
	enc.U64(c.lastLoad.Uint64())
	enc.U64(c.curCycle.Uint64())
	enc.Int(c.issued)
	enc.U64(c.instrRetired.Uint64())
	enc.U64(c.memAccesses)
	enc.U64(c.loadCount)
	enc.U64(c.loadLatSum.Uint64())
	enc.U64(c.winStartInstr.Uint64())
	enc.U64(c.winStartCycle.Uint64())
	return nil
}

// LoadState implements cache.Checkpointable.
func (c *Core) LoadState(dec *state.Dec) error {
	g, ok := c.gen.(seekableGen)
	if !ok {
		return fmt.Errorf("cpu: core %d runs live generator %q; checkpoint restore requires a replayed recording (trace.Recording.Replayer)",
			c.id.Int(), c.gen.Name())
	}
	cursor := dec.Int()
	if !dec.ExpectLen("retire ring", dec.Int(), len(c.retireRing)) {
		return dec.Err()
	}
	for i := range c.retireRing {
		c.retireRing[i] = mem.CycleOf(dec.U64())
	}
	c.pos = mem.InstrOf(dec.U64())
	c.lastRetire = mem.CycleOf(dec.U64())
	c.lastLoad = mem.CycleOf(dec.U64())
	c.curCycle = mem.CycleOf(dec.U64())
	c.issued = dec.Int()
	c.instrRetired = mem.InstrOf(dec.U64())
	c.memAccesses = dec.U64()
	c.loadCount = dec.U64()
	c.loadLatSum = mem.CycleOf(dec.U64())
	c.winStartInstr = mem.InstrOf(dec.U64())
	c.winStartCycle = mem.CycleOf(dec.U64())
	if err := dec.Err(); err != nil {
		return err
	}
	if cursor < 0 || cursor > g.Len() {
		return fmt.Errorf("cpu: core %d checkpoint cursor %d outside recording of %d records",
			c.id.Int(), cursor, g.Len())
	}
	g.Seek(cursor)
	return nil
}
