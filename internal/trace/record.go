package trace

// Record-once / replay-many engine (DESIGN.md §8). Every Generator in this
// package is timing-independent: Next() takes no input from the simulated
// machine, so the stream a generator produces is a pure function of its
// construction parameters. A sweep that compares K policies on one workload
// therefore regenerates a byte-identical stream K times. RecordStream runs
// a generator once to a per-core instruction budget and freezes the stream
// into a Recording — a flat, immutable struct-of-arrays buffer — and any
// number of Replayers then serve it back with a cache-friendly column scan,
// zero allocations, and a per-core rebase offset.
//
// The freeze discipline is certified by chromevet's frozenshare analyzer:
// once Freeze runs, every mutating method panics, which is what makes a
// Recording safe to share read-only across the parallel experiment
// runner's workers.

import (
	"fmt"

	"chrome/internal/mem"
)

// Bits of a recording's kinds column.
const (
	flagWrite     = 1 << 0
	flagDependent = 1 << 1
)

// Recording is a frozen, immutable trace stream in struct-of-arrays layout:
// one column per Record field group, so replay touches dense homogeneous
// arrays instead of striding over padded structs.
//
//chromevet:frozenshare
type Recording struct {
	name string
	// Parallel columns, one entry per record.
	pcs   []uint64
	addrs []uint64 // unrebased byte addresses
	kinds []uint8  // flagWrite | flagDependent
	gaps  []uint8
	// instrs is the number of retired instructions the stream covers: each
	// record retires Gap compute instructions plus the memory instruction
	// itself (cpu.Core.Step consumes exactly one record per step).
	instrs uint64
	frozen bool
}

// mustMutable panics when the recording has been frozen. Every mutating
// method consults it, so a post-freeze write is loud instead of a data race
// across the parallel runner's workers.
func (r *Recording) mustMutable() {
	if r.frozen {
		panic("trace: mutation of frozen recording " + r.name)
	}
}

// add appends one record to the columns.
func (r *Recording) add(rec Record) {
	r.mustMutable()
	var k uint8
	if rec.Write {
		k |= flagWrite
	}
	if rec.Dependent {
		k |= flagDependent
	}
	r.pcs = append(r.pcs, rec.PC.Uint64())
	r.addrs = append(r.addrs, rec.Addr.Uint64())
	r.kinds = append(r.kinds, k)
	r.gaps = append(r.gaps, rec.Gap)
	r.instrs += uint64(rec.Gap) + 1
}

// Freeze makes the recording immutable. Idempotent; only the latch itself
// is written.
func (r *Recording) Freeze() { r.frozen = true }

// Frozen reports whether the recording has been frozen.
func (r *Recording) Frozen() bool { return r.frozen }

// Name returns the recorded generator's name.
func (r *Recording) Name() string { return r.name }

// Len returns the number of recorded records.
func (r *Recording) Len() int { return len(r.pcs) }

// Instructions returns the number of retired instructions the stream
// covers (Σ Gap+1 over the records).
func (r *Recording) Instructions() uint64 { return r.instrs }

// At reconstructs record i of the stream, unrebased.
func (r *Recording) At(i int) Record {
	k := r.kinds[i]
	return Record{
		PC:        mem.PCOf(r.pcs[i]),
		Addr:      mem.AddrOf(r.addrs[i]),
		Write:     k&flagWrite != 0,
		Dependent: k&flagDependent != 0,
		Gap:       r.gaps[i],
	}
}

// Checksum returns the FNV-1a digest of the recording's columns (the
// on-disk format stores it so a corrupted or stale file is rejected on
// load rather than silently perturbing results).
func (r *Recording) Checksum() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64, bytes int) {
		for b := 0; b < bytes; b++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for i := range r.pcs {
		mix(r.pcs[i], 8)
		mix(r.addrs[i], 8)
		mix(uint64(r.kinds[i]), 1)
		mix(uint64(r.gaps[i]), 1)
	}
	return h
}

// RecordStream runs gen until the stream covers at least budget retired
// instructions and returns the frozen recording. The stopping point is a
// pure function of the stream itself — the core model retires exactly
// Gap+1 instructions per record — so a recording at budget warmup+measure
// covers a simulation run with those phases exactly, for every scheme.
func RecordStream(gen Generator, budget mem.Instr) *Recording {
	if budget == 0 {
		panic("trace: RecordStream requires a positive instruction budget")
	}
	// Typical profiles average ~3 instructions per record; pre-size the
	// columns near that so recording does not thrash the allocator.
	sized := budget.Uint64() / 3
	if sized > 1<<30 {
		sized = 1 << 30
	}
	est := int(sized) + 8 //chromevet:allow narrowing -- clamped to 2^30 above
	rec := &Recording{
		name:  gen.Name(),
		pcs:   make([]uint64, 0, est),
		addrs: make([]uint64, 0, est),
		kinds: make([]uint8, 0, est),
		gaps:  make([]uint8, 0, est),
	}
	for rec.instrs < budget.Uint64() {
		rec.add(gen.Next())
	}
	rec.Freeze()
	return rec
}

// Replayer serves a frozen Recording back through the Generator interface,
// applying a fixed per-core rebase offset, so sim/cpu consume recordings
// without any changes. It holds the recording's column slices directly
// (aliases of immutable data) plus a cursor; the per-core state is a few
// words, so a K-scheme sweep shares one Recording through K cheap
// Replayers.
type Replayer struct {
	name   string
	pcs    []uint64
	addrs  []uint64
	kinds  []uint8
	gaps   []uint8
	instrs uint64
	offset mem.Addr
	i      int
}

// Replayer returns a zero-allocation Generator over the frozen recording
// with every address shifted by offset (the replay analogue of
// trace.Rebase). It panics if the recording is not frozen.
func (r *Recording) Replayer(offset mem.Addr) *Replayer {
	if !r.frozen {
		panic("trace: Replayer over unfrozen recording " + r.name)
	}
	return &Replayer{
		name:   r.name,
		pcs:    r.pcs,
		addrs:  r.addrs,
		kinds:  r.kinds,
		gaps:   r.gaps,
		instrs: r.instrs,
		offset: offset,
	}
}

// Next returns the next recorded record. A replayer never wraps: running
// past the recorded window would silently diverge from the live generator,
// so exhaustion panics instead (the recording's budget must cover the
// run's warmup+measure window).
//
//chromevet:hot
func (p *Replayer) Next() Record {
	i := p.i
	if i >= len(p.pcs) {
		p.exhausted()
	}
	p.i = i + 1
	k := p.kinds[i]
	return Record{
		PC:        mem.PCOf(p.pcs[i]),
		Addr:      mem.AddrOf(p.addrs[i]) + p.offset,
		Write:     k&flagWrite != 0,
		Dependent: k&flagDependent != 0,
		Gap:       p.gaps[i],
	}
}

// exhausted is the out-of-line panic path of Next.
func (p *Replayer) exhausted() {
	panic(fmt.Sprintf("trace: replay of %q exhausted after %d records (%d instructions); record with a budget covering the full run",
		p.name, len(p.pcs), p.instrs))
}

// Reset rewinds the replayer to the first record.
func (p *Replayer) Reset() { p.i = 0 }

// Name returns the recorded generator's name.
func (p *Replayer) Name() string { return p.name }
