package trace

// Record-once / replay-many engine (DESIGN.md §8). Every Generator in this
// package is timing-independent: Next() takes no input from the simulated
// machine, so the stream a generator produces is a pure function of its
// construction parameters. A sweep that compares K policies on one workload
// therefore regenerates a byte-identical stream K times. RecordStream runs
// a generator once to a per-core instruction budget and freezes the stream
// into a Recording — one immutable byte stream of delta-encoded records —
// and any number of Replayers then decode it back in order, with zero
// allocations and a per-core rebase offset.
//
// The encoding is private to this file. Each record is three unsigned
// varints (7 bits per byte, low group first, the high bit set on every byte
// but the last): gap<<2 | flags, then the zigzag-encoded difference between
// its PC and the previous record's PC, then the same for its unrebased
// address. The first record's differences are taken from zero. Deltas wrap
// modulo 2^64, so every PC and address round-trips. A record takes 3 to 22
// bytes: the head takes one or two, a delta up to ten.
//
// The freeze discipline: once Freeze runs, every mutating method panics
// (TestRecordingFreezeDiscipline), which is what makes a Recording safe to
// share read-only across the parallel experiment runner's workers.

import (
	"fmt"

	"chrome/internal/mem"
)

// Bits of a record's head varint, below the gap.
const (
	flagWrite     = 1 << 0
	flagDependent = 1 << 1
)

// Recording is a frozen, immutable trace stream, encoded as one byte
// stream that a Replayer decodes front to back.
type Recording struct {
	name string
	// buf holds the encoded records back to back; n counts them.
	buf []byte
	n   int
	// pc and addr are the last added record's PC and unrebased address,
	// from which the next record's deltas are taken.
	pc, addr uint64
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

// add appends one encoded record to the stream.
func (r *Recording) add(rec Record) {
	r.mustMutable()
	head := uint64(rec.Gap) << 2
	if rec.Write {
		head |= flagWrite
	}
	if rec.Dependent {
		head |= flagDependent
	}
	pc, addr := rec.PC.Uint64(), rec.Addr.Uint64()
	b := appendUvarint(r.buf, head)
	b = appendUvarint(b, zigzag(pc-r.pc))
	r.buf = appendUvarint(b, zigzag(addr-r.addr))
	r.pc, r.addr = pc, addr
	r.n++
	r.instrs += uint64(rec.Gap) + 1
}

// appendUvarint appends x as an unsigned varint.
func appendUvarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

// uvarint decodes the varint that starts at buf[i] and returns it with the
// index just past it. add wrote buf, so every varint is complete.
func uvarint(buf []byte, i int) (uint64, int) {
	x := uint64(buf[i])
	if x < 0x80 {
		return x, i + 1
	}
	x &= 0x7f
	for s := uint(7); ; s += 7 {
		i++
		c := uint64(buf[i])
		if c < 0x80 {
			return x | c<<s, i + 1
		}
		x |= (c & 0x7f) << s
	}
}

// zigzag maps a wrapped difference to an unsigned value that is small
// when the difference, read as signed, is near zero: 0, -1, 1, -2 ...
// become 0, 1, 2, 3 ...
func zigzag(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) uint64 { return u>>1 ^ -(u & 1) }

// Freeze makes the recording immutable and releases the buffer's spare
// capacity. Idempotent: a frozen recording is only read.
func (r *Recording) Freeze() {
	if r.frozen {
		return
	}
	buf := make([]byte, len(r.buf))
	copy(buf, r.buf)
	r.buf = buf
	r.frozen = true
}

// Frozen reports whether the recording has been frozen.
func (r *Recording) Frozen() bool { return r.frozen }

// Name returns the recorded generator's name.
func (r *Recording) Name() string { return r.name }

// Len returns the number of recorded records.
func (r *Recording) Len() int { return r.n }

// Instructions returns the number of retired instructions the stream
// covers (Σ Gap+1 over the records).
func (r *Recording) Instructions() uint64 { return r.instrs }

// RecordStream runs gen until the stream covers at least budget retired
// instructions and returns the frozen recording. The stopping point is a
// pure function of the stream itself — the core model retires exactly
// Gap+1 instructions per record — so a recording at budget warmup+measure
// covers a simulation run with those phases exactly, for every scheme.
func RecordStream(gen Generator, budget mem.Instr) *Recording {
	if budget == 0 {
		panic("trace: RecordStream requires a positive instruction budget")
	}
	// Typical profiles average ~3 instructions and ~6 encoded bytes per
	// record, so 2 bytes per budgeted instruction holds most streams
	// without regrowing the buffer; Freeze trims what is left over.
	rec := &Recording{name: gen.Name(), buf: make([]byte, 0, 2*min(budget.Uint64(), 1<<29))}
	for rec.instrs < budget.Uint64() {
		rec.add(gen.Next())
	}
	rec.Freeze()
	return rec
}

// Replayer serves a frozen Recording back through the Generator interface,
// applying a fixed per-core rebase offset, so sim/cpu consume recordings
// without any changes. It aliases the recording's immutable byte stream
// and keeps a cursor plus the previous record's PC and address; the
// per-core state is a few words, so a K-scheme sweep shares one Recording
// through K cheap Replayers.
type Replayer struct {
	rec    *Recording
	buf    []byte // rec.buf
	offset mem.Addr
	// pos is the byte offset of the next record; pc and addr are the
	// previous record's PC and unrebased address.
	pos      int
	pc, addr uint64
}

// Replayer returns a zero-allocation Generator over the frozen recording
// with every address shifted by offset (the replay analogue of
// trace.Rebase). It panics if the recording is not frozen.
func (r *Recording) Replayer(offset mem.Addr) *Replayer {
	if !r.frozen {
		panic("trace: Replayer over unfrozen recording " + r.name)
	}
	return &Replayer{rec: r, buf: r.buf, offset: offset}
}

// Next returns the next recorded record. A replayer never wraps: running
// past the recorded window would silently diverge from the live generator,
// so exhaustion panics instead (the recording's budget must cover the
// run's warmup+measure window).
//
//chromevet:hot
func (p *Replayer) Next() Record {
	buf, i := p.buf, p.pos
	if i >= len(buf) {
		p.exhausted()
	}
	head, i := uvarint(buf, i)
	dpc, i := uvarint(buf, i)
	daddr, i := uvarint(buf, i)
	p.pos = i
	p.pc += unzigzag(dpc)
	p.addr += unzigzag(daddr)
	return Record{
		PC:        mem.PCOf(p.pc),
		Addr:      mem.AddrOf(p.addr) + p.offset,
		Write:     head&flagWrite != 0,
		Dependent: head&flagDependent != 0,
		Gap:       uint8(head >> 2),
	}
}

// exhausted is the out-of-line panic path of Next.
func (p *Replayer) exhausted() {
	panic(fmt.Sprintf("trace: replay of %q exhausted after %d records (%d instructions); record with a budget covering the full run",
		p.rec.name, p.rec.n, p.rec.instrs))
}

// Reset rewinds the replayer to the first record.
func (p *Replayer) Reset() { p.pos, p.pc, p.addr = 0, 0, 0 }

// Name returns the recorded generator's name.
func (p *Replayer) Name() string { return p.rec.name }
