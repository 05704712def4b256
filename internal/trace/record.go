package trace

// Record-once / replay-many engine (DESIGN.md §8). Every Generator in this
// package is timing-independent: Next() takes no input from the simulated
// machine, so the stream a generator produces is a pure function of its
// construction parameters. A sweep that compares K policies on one workload
// therefore regenerates a byte-identical stream K times. RecordStream runs
// a generator once to a per-core instruction budget and freezes the stream
// into a Recording — a symbol table plus one immutable byte stream — and
// any number of Replayers then decode it back in order, with zero
// allocations and a per-core rebase offset.
//
// The encoding is private to this file. A symbol is a record's (gap, flags,
// PC) triple, and the recording's table lists each distinct triple once, in
// order of first use. Each record is one unsigned varint code (7 bits per
// byte, low group first, the high bit set on every byte but the last): its
// symbol's index shifted left one bit. The address is predicted per PC, as
// the PC's last unrebased address plus its last stride (the difference of
// its last two addresses). The code's low bit is set when the record's
// unrebased address equals that prediction; when it is clear, a zigzag
// varint residual, the address minus the prediction, follows. A PC's first
// record is predicted from the previous record's address (zero for the
// first record of all), with a stride of zero. Differences wrap modulo
// 2^64, so every PC and address round-trips. A record takes 1 to 15 bytes:
// the code takes one byte for the first 64 symbols and two for the first
// 8,192, a residual up to ten.
//
// The freeze discipline: once Freeze runs, every mutating method panics
// (TestRecordingFreezeDiscipline), which is what makes a Recording safe to
// share read-only across the parallel experiment runner's workers. Freeze
// drops the encoder's lookup state; a Replayer keeps its own predictors.

import (
	"fmt"

	"chrome/internal/mem"
)

// Bits of a record's flags, which index a PC's symbols in the encoder and
// sit below the gap in a symbol's key.
const (
	flagWrite     = 1 << 0
	flagDependent = 1 << 1
)

// Recording is a frozen, immutable trace stream, encoded as a symbol table
// and one byte stream that a Replayer decodes front to back.
type Recording struct {
	name string
	// buf holds the encoded records back to back; n counts them.
	buf []byte
	n   int
	// syms is the symbol table that the codes index; pcs counts the
	// distinct PCs, one predictor each in a Replayer.
	syms []symbol
	pcs  int
	// instrs is the number of retired instructions the stream covers: each
	// record retires Gap compute instructions plus the memory instruction
	// itself (cpu.Core.Step consumes exactly one record per step).
	instrs uint64
	// enc is add's lookup state; Freeze drops it.
	enc    encoder
	frozen bool
}

// symbol is one (gap, flags, PC) triple of the table. id is the PC's rank
// by first use, which indexes its predictor.
type symbol struct {
	pc               uint64
	id               uint32
	gap              uint8
	write, dependent bool
}

// predictor is one PC's address prediction state: its last unrebased
// address and the difference of its last two.
type predictor struct{ last, stride uint64 }

// next returns the predicted address of the PC's next record.
func (p *predictor) next() uint64 { return p.last + p.stride }

// see moves the prediction past a record at addr.
func (p *predictor) see(addr uint64) { p.stride, p.last = addr-p.last, addr }

// encoder is the lookup state of a recording under construction: an
// open-addressed, linearly probed table of PCs. Its length is a power of
// two, at least twice the PC count, and shift keeps the top
// log2(len(table)) bits of a PC's Fibonacci hash.
type encoder struct {
	table []encPC
	shift uint
	// more lists, by PC rank, each PC's symbols at gaps other than its
	// first, keyed by gap<<2 | flags.
	more [][]encSym
	// prev is the previous record's unrebased address.
	prev uint64
}

// encPC is one slot of the PC table: a PC's predictor and its symbols at
// the gap of its first record, one per flag pair, so that a record of a
// PC whose gap never changes reads one slot.
type encPC struct {
	pc   uint64
	pred predictor
	// syms holds 1 + the table index of the symbol for each flag pair,
	// or 0 before that pair's first record.
	syms [4]uint32
	// rank is 1 + the PC's rank by first use, or 0 for an empty slot.
	rank uint32
	gap  uint8
}

// encSym maps a symbol's key within its PC to its index in the table.
type encSym struct {
	key uint16
	sym uint32
}

// encBits is the log2 of the PC table's first size; the table doubles as
// PCs arrive.
const encBits = 6

// fibHash is 2^64 divided by the golden ratio; a PC times it, keeping the
// top bits, spreads PCs a small stride apart over the whole table.
const fibHash = 0x9e3779b97f4a7c15

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
	e := &r.enc
	if e.table == nil {
		e.table, e.shift = make([]encPC, 1<<encBits), 64-encBits
	}
	pc := rec.PC.Uint64()
	mask := uint64(len(e.table) - 1)
	i := pc * fibHash >> e.shift
	for e.table[i].pc != pc && e.table[i].rank != 0 {
		i = (i + 1) & mask
	}
	p := &e.table[i]
	if p.rank == 0 {
		p = r.newPC(p, rec)
	}
	var flags uint8
	if rec.Write {
		flags |= flagWrite
	}
	if rec.Dependent {
		flags |= flagDependent
	}
	var sym uint32
	if rec.Gap == p.gap {
		if p.syms[flags&3] == 0 {
			p.syms[flags&3] = r.newSymbol(p, rec) + 1
		}
		sym = p.syms[flags&3] - 1
	} else {
		sym = r.otherSymbol(p, rec, uint16(rec.Gap)<<2|uint16(flags))
	}
	addr, pred := rec.Addr.Uint64(), p.pred.next()
	if addr == pred {
		r.buf = appendUvarint(r.buf, uint64(sym)<<1|1)
	} else {
		b := appendUvarint(r.buf, uint64(sym)<<1)
		r.buf = appendUvarint(b, zigzag(addr-pred))
	}
	p.pred.see(addr)
	e.prev = addr
	r.n++
	r.instrs += uint64(rec.Gap) + 1
}

// newPC fills the empty slot p with rec's PC, whose predictor starts at
// the previous record's address and whose symbols start at rec's gap, and
// returns the PC's slot, which moves when the table grows.
func (r *Recording) newPC(p *encPC, rec Record) *encPC {
	e := &r.enc
	r.pcs++
	*p = encPC{pc: rec.PC.Uint64(), pred: predictor{last: e.prev}, rank: uint32(r.pcs), gap: rec.Gap}
	e.more = append(e.more, nil)
	if 2*r.pcs <= len(e.table) {
		return p
	}
	old := e.table
	e.table = make([]encPC, 2*len(old))
	e.shift--
	mask := uint64(len(e.table) - 1)
	for _, q := range old {
		if q.rank == 0 {
			continue
		}
		i := q.pc * fibHash >> e.shift
		for e.table[i].rank != 0 {
			i = (i + 1) & mask
		}
		e.table[i] = q
		if q.pc == p.pc {
			p = &e.table[i]
		}
	}
	return p
}

// otherSymbol returns the table index of a symbol of p's PC at another gap
// than its first, keyed by key, adding the symbol when it is new.
func (r *Recording) otherSymbol(p *encPC, rec Record, key uint16) uint32 {
	more := &r.enc.more[p.rank-1]
	for _, s := range *more {
		if s.key == key {
			return s.sym
		}
	}
	sym := r.newSymbol(p, rec)
	*more = append(*more, encSym{key: key, sym: sym})
	return sym
}

// newSymbol appends rec's symbol, whose PC's slot is p, to the table and
// returns its index.
func (r *Recording) newSymbol(p *encPC, rec Record) uint32 {
	r.syms = append(r.syms, symbol{pc: p.pc, id: p.rank - 1, gap: rec.Gap, write: rec.Write, dependent: rec.Dependent})
	return uint32(len(r.syms) - 1)
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

// Freeze makes the recording immutable, drops the encoder's lookup state
// and releases the buffer's and the table's spare capacity. Idempotent: a
// frozen recording is only read.
func (r *Recording) Freeze() {
	if r.frozen {
		return
	}
	buf := make([]byte, len(r.buf))
	copy(buf, r.buf)
	r.buf = buf
	syms := make([]symbol, len(r.syms))
	copy(syms, r.syms)
	r.syms = syms
	r.enc = encoder{}
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
	// Typical profiles average ~3 instructions per record, and a record
	// takes one code byte plus a residual only when its PC's stride
	// misses, ~3 bytes on average, so 1 byte per budgeted instruction
	// holds most streams without regrowing the buffer; Freeze trims what
	// is left over.
	rec := &Recording{name: gen.Name(), buf: make([]byte, 0, min(budget.Uint64(), 1<<30))}
	for rec.instrs < budget.Uint64() {
		rec.add(gen.Next())
	}
	rec.Freeze()
	return rec
}

// Replayer serves a frozen Recording back through the Generator interface,
// applying a fixed per-core rebase offset, so sim/cpu consume recordings
// without any changes. It aliases the recording's immutable byte stream and
// symbol table and keeps a cursor, the previous record's address and one
// predictor per PC of its own; the per-core state is a few words per PC,
// so a K-scheme sweep shares one Recording through K cheap Replayers.
type Replayer struct {
	rec    *Recording
	buf    []byte   // rec.buf
	syms   []symbol // rec.syms
	offset mem.Addr
	// pos is the byte offset of the next record and prev the previous
	// record's unrebased address. seen counts the PCs decoded since the
	// start: pred[id] is live for id < seen, and a symbol whose id equals
	// seen is its PC's first record.
	pos  int
	prev uint64
	seen uint32
	pred []predictor
}

// Replayer returns a zero-allocation Generator over the frozen recording
// with every address shifted by offset (the replay analogue of
// trace.Rebase). It panics if the recording is not frozen.
func (r *Recording) Replayer(offset mem.Addr) *Replayer {
	if !r.frozen {
		panic("trace: Replayer over unfrozen recording " + r.name)
	}
	return &Replayer{rec: r, buf: r.buf, syms: r.syms, offset: offset, pred: make([]predictor, r.pcs)}
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
	code, i := uvarint(buf, i)
	sym := &p.syms[code>>1]
	st := &p.pred[sym.id]
	if sym.id == p.seen {
		*st = predictor{last: p.prev}
		p.seen++
	}
	addr := st.next()
	if code&1 == 0 {
		var res uint64
		res, i = uvarint(buf, i)
		addr += unzigzag(res)
	}
	p.pos = i
	st.see(addr)
	p.prev = addr
	return Record{
		PC:        mem.PCOf(sym.pc),
		Addr:      mem.AddrOf(addr) + p.offset,
		Write:     sym.write,
		Dependent: sym.dependent,
		Gap:       sym.gap,
	}
}

// exhausted is the out-of-line panic path of Next.
func (p *Replayer) exhausted() {
	panic(fmt.Sprintf("trace: replay of %q exhausted after %d records (%d instructions); record with a budget covering the full run",
		p.rec.name, p.rec.n, p.rec.instrs))
}

// Reset rewinds the replayer to the first record. Every PC is unseen
// again, so each predictor restarts at its PC's first record.
func (p *Replayer) Reset() { p.pos, p.prev, p.seen = 0, 0, 0 }

// Name returns the recorded generator's name.
func (p *Replayer) Name() string { return p.rec.name }
