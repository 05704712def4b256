package chrome

// Full-state checkpointing of an agent (DESIGN.md §10),
// complementing the CHQT warm-start format in checkpoint.go: where CHQT
// captures only the learned Q-table, SaveState/LoadState capture everything
// that influences future decisions — Q-table, evaluation queues, feature
// histories, per-line EPVs, the exploration RNG position, and the activity
// counters — so a restored agent continues bit-identically to an
// uninterrupted run.

import (
	"fmt"

	"chrome/internal/mem"
	"chrome/internal/state"
)

func saveState(enc *state.Enc, s State) {
	for _, f := range s.f {
		enc.U64(f)
	}
	enc.U8(s.n)
}

func loadState(dec *state.Dec) State {
	var s State
	for i := range s.f {
		s.f[i] = dec.U64()
	}
	s.n = dec.U8()
	return s
}

func saveEQEntry(enc *state.Enc, e *EQEntry) {
	saveState(enc, e.State)
	enc.U8(uint8(e.Action))
	enc.Bool(e.TriggerHit)
	enc.U16(e.AddrHash)
	enc.U8(e.Core)
	enc.Bool(e.HasReward)
	enc.I8(e.Reward)
	enc.Bool(e.Prefetch)
}

func loadEQEntry(dec *state.Dec) EQEntry {
	var e EQEntry
	e.State = loadState(dec)
	e.Action = Action(dec.U8())
	e.TriggerHit = dec.Bool()
	e.AddrHash = dec.U16()
	e.Core = dec.U8()
	e.HasReward = dec.Bool()
	e.Reward = dec.I8()
	e.Prefetch = dec.Bool()
	return e
}

// SaveState implements cache.Checkpointable.
func (a *Agent) SaveState(enc *state.Enc) error {
	rngState, err := a.pcg.MarshalBinary()
	if err != nil {
		return fmt.Errorf("chrome: serializing exploration RNG: %w", err)
	}
	enc.BytesN(rngState)

	// Q-table partials and the update counter.
	enc.Int(a.qt.n)
	enc.Int(a.qt.cfg.SubTables)
	for f := 0; f < a.qt.n; f++ {
		for t := 0; t < a.qt.cfg.SubTables; t++ {
			part := a.qt.partials[f][t]
			enc.Int(len(part))
			for _, v := range part {
				enc.I16(v)
			}
		}
	}
	enc.U64(a.qt.updates)

	// Evaluation queues: full ring content plus cursor.
	enc.Int(len(a.eq.queues))
	enc.Int(a.eq.depth)
	for q := range a.eq.queues {
		r := &a.eq.queues[q]
		enc.Int(r.head)
		enc.Int(r.n)
		for i := range r.buf {
			saveEQEntry(enc, &r.buf[i])
		}
	}

	// Per-core feature contexts.
	enc.Int(len(a.ext.ctx))
	for i := range a.ext.ctx {
		fc := &a.ext.ctx[i]
		enc.U64(fc.lastBlock)
		enc.Bool(fc.hasLast)
		enc.I64(fc.lastDelta)
		for _, pc := range fc.pcHist {
			enc.U64(pc.Uint64())
		}
		for _, d := range fc.deltaHist {
			enc.I64(d)
		}
	}

	// Per-line EPVs and the Victim→OnFill carry.
	enc.Int(len(a.epv))
	for _, row := range a.epv {
		enc.Int(len(row))
		for _, v := range row {
			enc.U8(v)
		}
	}
	enc.U8(a.pendingEPV)
	enc.Bool(a.pendingValid)

	// Activity counters.
	st := &a.stats
	enc.U64(st.Decisions)
	enc.U64(st.Explorations)
	enc.U64(st.Bypasses)
	enc.U64(st.SampledAccesses)
	enc.U64(st.RewardsAC)
	enc.U64(st.RewardsIN)
	enc.U64(st.RewardsNR)
	for i := range st.MissActions {
		for _, v := range st.MissActions[i] {
			enc.U64(v)
		}
		for _, v := range st.HitActions[i] {
			enc.U64(v)
		}
	}
	return nil
}

// LoadState implements cache.Checkpointable.
func (a *Agent) LoadState(dec *state.Dec) error {
	if err := a.pcg.UnmarshalBinary(dec.BytesN()); err != nil {
		return fmt.Errorf("chrome: restoring exploration RNG: %w", err)
	}

	if !dec.ExpectLen("Q-table features", dec.Int(), a.qt.n) ||
		!dec.ExpectLen("Q-table sub-tables", dec.Int(), a.qt.cfg.SubTables) {
		return dec.Err()
	}
	for f := 0; f < a.qt.n; f++ {
		for t := 0; t < a.qt.cfg.SubTables; t++ {
			part := a.qt.partials[f][t]
			if !dec.ExpectLen("Q-table partials", dec.Int(), len(part)) {
				return dec.Err()
			}
			for i := range part {
				part[i] = dec.I16()
			}
		}
	}
	a.qt.updates = dec.U64()

	if !dec.ExpectLen("EQ queues", dec.Int(), len(a.eq.queues)) ||
		!dec.ExpectLen("EQ depth", dec.Int(), a.eq.depth) {
		return dec.Err()
	}
	for q := range a.eq.queues {
		r := &a.eq.queues[q]
		r.head = dec.Int()
		r.n = dec.Int()
		if dec.Err() != nil {
			return dec.Err()
		}
		if r.head < 0 || r.head >= len(r.buf) || r.n < 0 || r.n > len(r.buf) {
			return fmt.Errorf("%w: EQ ring cursor (head %d, n %d) outside depth %d",
				state.ErrCorrupt, r.head, r.n, len(r.buf))
		}
		for i := range r.buf {
			r.buf[i] = loadEQEntry(dec)
		}
	}

	if !dec.ExpectLen("feature contexts", dec.Int(), len(a.ext.ctx)) {
		return dec.Err()
	}
	for i := range a.ext.ctx {
		fc := &a.ext.ctx[i]
		fc.lastBlock = dec.U64()
		fc.hasLast = dec.Bool()
		fc.lastDelta = dec.I64()
		for j := range fc.pcHist {
			fc.pcHist[j] = mem.PCOf(dec.U64())
		}
		for j := range fc.deltaHist {
			fc.deltaHist[j] = dec.I64()
		}
	}

	if !dec.ExpectLen("EPV sets", dec.Int(), len(a.epv)) {
		return dec.Err()
	}
	for s, row := range a.epv {
		if !dec.ExpectLen("EPV ways", dec.Int(), len(row)) {
			return dec.Err()
		}
		for w := range row {
			a.epv[s][w] = dec.U8() & 0x3
		}
	}
	a.pendingEPV = dec.U8() & 0x3
	a.pendingValid = dec.Bool()

	st := &a.stats
	st.Decisions = dec.U64()
	st.Explorations = dec.U64()
	st.Bypasses = dec.U64()
	st.SampledAccesses = dec.U64()
	st.RewardsAC = dec.U64()
	st.RewardsIN = dec.U64()
	st.RewardsNR = dec.U64()
	for i := range st.MissActions {
		for j := range st.MissActions[i] {
			st.MissActions[i][j] = dec.U64()
		}
		for j := range st.HitActions[i] {
			st.HitActions[i][j] = dec.U64()
		}
	}
	return dec.Err()
}
