package cache

// Checkpoint support (DESIGN.md §10). Checkpoints restore *in place* into an
// identically constructed live component: only mutable simulation state is
// serialized, while construction-deterministic state (geometry, samplers,
// leader sets, thresholds) is rebuilt by the normal constructors and
// validated against the payload where cheap. This keeps wired closures
// (obstruction callbacks, DRAM observers) intact across a restore.

import (
	"errors"
	"fmt"

	"chrome/internal/mem"
	"chrome/internal/state"
)

// Checkpointable is implemented by components whose mutable simulation state
// can be serialized into a checkpoint and restored in place. The interface
// is structural: policies, prefetchers, caches, cores, and monitors all
// satisfy it without importing this package.
//
// SaveState appends the component's mutable fields to enc in a fixed order;
// LoadState reads them back in the same order. SaveState errors when the
// component is in a state that cannot be checkpointed (e.g. measurement
// trackers installed); LoadState errors are sticky on the decoder, so
// implementations may decode unconditionally and report dec.Err().
type Checkpointable interface {
	SaveState(enc *state.Enc) error
	LoadState(dec *state.Dec) error
}

// saveBlocks encodes a block array (sets×ways, row-major).
func saveBlocks(enc *state.Enc, blocks []Block) {
	enc.Int(len(blocks))
	for i := range blocks {
		b := &blocks[i]
		enc.Bool(b.Valid)
		enc.U64(b.Tag.Uint64())
		enc.Bool(b.Dirty)
		enc.Bool(b.Prefetched)
		enc.Bool(b.Used)
		enc.U64(b.LastTouch.Uint64())
		enc.U64(b.FillCycle.Uint64())
		enc.U64(b.FillPC.Uint64())
		enc.Int(b.FillCore.Int())
		enc.U64(b.ReadyAt.Uint64())
		enc.U32(b.FillEpoch)
	}
}

// loadBlocks decodes a block array saved by saveBlocks into blocks, which
// must have the geometry the checkpoint was taken at.
func loadBlocks(dec *state.Dec, blocks []Block) {
	if !dec.ExpectLen("cache blocks", dec.Int(), len(blocks)) {
		return
	}
	for i := range blocks {
		b := &blocks[i]
		b.Valid = dec.Bool()
		b.Tag = mem.BlockAddrOf(dec.U64())
		b.Dirty = dec.Bool()
		b.Prefetched = dec.Bool()
		b.Used = dec.Bool()
		b.LastTouch = mem.CycleOf(dec.U64())
		b.FillCycle = mem.CycleOf(dec.U64())
		b.FillPC = mem.PCOf(dec.U64())
		b.FillCore = mem.CoreIDOf(dec.Int())
		b.ReadyAt = mem.CycleOf(dec.U64())
		b.FillEpoch = dec.U32()
	}
}

// saveStats encodes the per-level counters.
func saveStats(enc *state.Enc, s *Stats) {
	enc.U64(s.DemandLoadHits)
	enc.U64(s.DemandLoadMisses)
	enc.U64(s.DemandStoreHits)
	enc.U64(s.DemandStoreMisses)
	enc.U64(s.PrefetchHits)
	enc.U64(s.PrefetchMisses)
	enc.U64(s.PrefetchFills)
	enc.U64(s.PrefetchUseful)
	enc.U64(s.Fills)
	enc.U64(s.Bypasses)
	enc.U64(s.Evictions)
	enc.U64(s.EvictionsUnused)
	enc.U64(s.EvictionsUnusedPF)
	enc.U64(s.Writebacks)
	enc.U64(s.WritebackHits)
	enc.U64(s.WritebackMisses)
}

// loadStats decodes counters saved by saveStats.
func loadStats(dec *state.Dec, s *Stats) {
	s.DemandLoadHits = dec.U64()
	s.DemandLoadMisses = dec.U64()
	s.DemandStoreHits = dec.U64()
	s.DemandStoreMisses = dec.U64()
	s.PrefetchHits = dec.U64()
	s.PrefetchMisses = dec.U64()
	s.PrefetchFills = dec.U64()
	s.PrefetchUseful = dec.U64()
	s.Fills = dec.U64()
	s.Bypasses = dec.U64()
	s.Evictions = dec.U64()
	s.EvictionsUnused = dec.U64()
	s.EvictionsUnusedPF = dec.U64()
	s.Writebacks = dec.U64()
	s.WritebackHits = dec.U64()
	s.WritebackMisses = dec.U64()
}

// ErrNotCheckpointable reports a component whose current configuration
// cannot be captured in a checkpoint.
var ErrNotCheckpointable = errors.New("cache: component state cannot be checkpointed")

// SaveState implements Checkpointable: blocks, counters, and the stats
// epoch. The installed policy's state is saved separately by the composing
// layer (via the Policy accessor), keeping cache state and policy state
// independently versioned. Measurement trackers (Fig. 2 / Fig. 9) hold
// unbounded address sets and are refused.
func (c *Cache) SaveState(enc *state.Enc) error {
	if c.evictTracker != nil || c.bypassTracker != nil {
		return fmt.Errorf("%w: %s has reuse trackers installed", ErrNotCheckpointable, c.cfg.Name)
	}
	saveBlocks(enc, c.blocks)
	saveStats(enc, &c.stats)
	enc.U32(c.epoch)
	return nil
}

// LoadState implements Checkpointable.
func (c *Cache) LoadState(dec *state.Dec) error {
	if c.evictTracker != nil || c.bypassTracker != nil {
		return fmt.Errorf("%w: %s has reuse trackers installed", ErrNotCheckpointable, c.cfg.Name)
	}
	loadBlocks(dec, c.blocks)
	loadStats(dec, &c.stats)
	c.epoch = dec.U32()
	return dec.Err()
}
