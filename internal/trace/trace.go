// Package trace models instruction traces and provides synthetic trace
// generators that stand in for the SPEC CPU2006/2017 and GAP traces used by
// the CHROME paper (see DESIGN.md §1 for the substitution rationale).
//
// A trace is an infinite, deterministic stream of Records. Each Record is
// one memory instruction annotated with the number of non-memory
// instructions that precede it, so the core timing model can account for
// compute work between accesses.
package trace

import (
	"math/rand/v2"

	"chrome/internal/mem"
)

// Record is one memory instruction in a trace.
type Record struct {
	// PC is the program counter of the memory instruction.
	PC mem.PC
	// Addr is the accessed byte address.
	Addr mem.Addr
	// Write marks the access as a store.
	Write bool
	// Dependent marks a load whose address depends on the previous load
	// (pointer chasing); the core model serializes such loads.
	Dependent bool
	// Gap is the number of non-memory instructions executed before this
	// access (compute work between memory operations).
	Gap uint8
}

// Generator produces an infinite, deterministic stream of trace records.
type Generator interface {
	// Next returns the next record in the stream.
	Next() Record
	// Reset rewinds the generator to its initial state.
	Reset()
	// Name identifies the generator (workload name for profiles).
	Name() string
}

// rng returns a deterministic PCG-backed rand.Rand for the given seed.
func rng(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, mem.Mix64(seed)))
}

// regionBase spaces out the address regions of distinct generators so that
// composed workloads do not alias. Region i starts at i * 256 MiB.
func regionBase(region uint64) mem.Addr {
	return mem.AddrOf(region << 28)
}

// Rebased offsets every address of an inner generator by a fixed amount,
// giving each core of a multi-programmed mix its own physical address
// space even when cores run identical traces.
type Rebased struct {
	inner  Generator
	offset mem.Addr
}

// Rebase wraps gen so all addresses are shifted by offset bytes.
func Rebase(gen Generator, offset mem.Addr) *Rebased {
	return &Rebased{inner: gen, offset: offset}
}

// Next returns the inner record with the address rebased.
//
//chromevet:hot
func (r *Rebased) Next() Record {
	rec := r.inner.Next()
	rec.Addr += r.offset
	return rec
}

// Reset rewinds the inner generator.
func (r *Rebased) Reset() { r.inner.Reset() }

// Name returns the inner generator's name.
func (r *Rebased) Name() string { return r.inner.Name() }

// ---------------------------------------------------------------------------
// Stream: pure sequential streaming (e.g. libquantum, lbm).

// Stream generates sequential block-by-block accesses through a region,
// wrapping around at the end. It models streaming workloads with essentially
// no temporal reuse and perfect spatial locality.
type Stream struct {
	name   string
	base   mem.Addr
	size   uint64 // bytes
	stride uint64 // bytes per access
	gap    uint8
	wfrac  float64 // fraction of accesses that are stores
	pc     mem.PC
	pos    uint64
	r      *rand.Rand
	seed   uint64
}

// StreamConfig parameterizes a Stream generator.
type StreamConfig struct {
	Name   string
	Region uint64  // address region index
	Size   uint64  // region size in bytes
	Stride uint64  // bytes advanced per access (default BlockSize/2)
	Gap    uint8   // compute instructions between accesses
	Writes float64 // store fraction
	Seed   uint64
}

// NewStream builds a streaming generator.
func NewStream(cfg StreamConfig) *Stream {
	if cfg.Stride == 0 {
		cfg.Stride = mem.BlockSize / 2
	}
	if cfg.Size == 0 {
		cfg.Size = 64 << 20
	}
	s := &Stream{
		name:   cfg.Name,
		base:   regionBase(cfg.Region),
		size:   cfg.Size,
		stride: cfg.Stride,
		gap:    cfg.Gap,
		wfrac:  cfg.Writes,
		pc:     mem.PCOf(0x400000 + cfg.Region*0x1000),
		seed:   cfg.Seed,
	}
	s.Reset()
	return s
}

// Next returns the next sequential access.
//
//chromevet:hot
func (s *Stream) Next() Record {
	addr := s.base.Plus(s.pos)
	s.pos = (s.pos + s.stride) % s.size
	w := s.wfrac > 0 && s.r.Float64() < s.wfrac
	pc := s.pc
	if w {
		pc += 8
	}
	return Record{PC: pc, Addr: addr, Write: w, Gap: s.gap}
}

// Reset rewinds the stream to the region base.
func (s *Stream) Reset() {
	s.pos = 0
	s.r = rng(s.seed ^ 0x5712ea)
}

// Name returns the configured name.
func (s *Stream) Name() string { return s.name }

// ---------------------------------------------------------------------------
// Stride: multiple concurrent strided streams from distinct PCs.

// Stride generates interleaved constant-stride streams, each owned by its
// own PC, modeling loop nests over arrays (e.g. bwaves, leslie3d, GemsFDTD).
type Stride struct {
	name    string
	streams []strideStream
	gap     uint8
	idx     int
	init    []strideStream
}

type strideStream struct {
	pc     mem.PC
	base   mem.Addr
	size   uint64
	stride uint64
	pos    uint64
	write  bool
}

// StrideConfig parameterizes a Stride generator.
type StrideConfig struct {
	Name    string
	Region  uint64
	Streams int      // number of concurrent strided streams
	Strides []uint64 // per-stream stride in bytes (cycled if shorter)
	Size    uint64   // per-stream region size in bytes
	Gap     uint8
	Writes  int // number of streams that are store streams
}

// NewStride builds a multi-stream strided generator.
func NewStride(cfg StrideConfig) *Stride {
	if cfg.Streams == 0 {
		cfg.Streams = 4
	}
	if cfg.Size == 0 {
		cfg.Size = 8 << 20
	}
	if len(cfg.Strides) == 0 {
		cfg.Strides = []uint64{64, 128, 192, 256}
	}
	g := &Stride{name: cfg.Name, gap: cfg.Gap}
	for i := 0; i < cfg.Streams; i++ {
		g.init = append(g.init, strideStream{
			pc:     mem.PCOf(0x500000 + cfg.Region*0x1000 + uint64(i)*16),
			base:   regionBase(cfg.Region).Plus(uint64(i) * cfg.Size),
			size:   cfg.Size,
			stride: cfg.Strides[i%len(cfg.Strides)],
			write:  i < cfg.Writes,
		})
	}
	g.Reset()
	return g
}

// Next round-robins across the streams.
//
//chromevet:hot
func (g *Stride) Next() Record {
	st := &g.streams[g.idx]
	g.idx = (g.idx + 1) % len(g.streams)
	addr := st.base.Plus(st.pos)
	st.pos = (st.pos + st.stride) % st.size
	return Record{PC: st.pc, Addr: addr, Write: st.write, Gap: g.gap}
}

// Reset rewinds every stream.
func (g *Stride) Reset() {
	g.streams = append(g.streams[:0], g.init...)
	g.idx = 0
}

// Name returns the configured name.
func (g *Stride) Name() string { return g.name }

// ---------------------------------------------------------------------------
// WorkingSet: random accesses within a working set with a hot subset.

// WorkingSet generates random block accesses within a fixed-size working
// set. A configurable fraction of accesses target a small hot subset,
// producing a bimodal reuse-distance distribution (e.g. gcc, xalancbmk,
// omnetpp-like behavior).
type WorkingSet struct {
	name    string
	base    mem.Addr
	blocks  uint64
	hot     uint64
	hotFrac float64
	gap     uint8
	wfrac   float64
	pcs     []mem.PC
	r       *rand.Rand
	seed    uint64
}

// WorkingSetConfig parameterizes a WorkingSet generator.
type WorkingSetConfig struct {
	Name    string
	Region  uint64
	Size    uint64  // working-set size in bytes
	HotSize uint64  // hot-subset size in bytes
	HotFrac float64 // probability an access targets the hot subset
	Gap     uint8
	Writes  float64
	PCs     int // number of distinct PCs issuing the accesses
	Seed    uint64
}

// NewWorkingSet builds a working-set generator.
func NewWorkingSet(cfg WorkingSetConfig) *WorkingSet {
	if cfg.Size == 0 {
		cfg.Size = 16 << 20
	}
	if cfg.HotSize == 0 {
		cfg.HotSize = cfg.Size / 16
	}
	if cfg.PCs == 0 {
		cfg.PCs = 8
	}
	g := &WorkingSet{
		name:    cfg.Name,
		base:    regionBase(cfg.Region),
		blocks:  cfg.Size / mem.BlockSize,
		hot:     cfg.HotSize / mem.BlockSize,
		hotFrac: cfg.HotFrac,
		gap:     cfg.Gap,
		wfrac:   cfg.Writes,
		seed:    cfg.Seed,
	}
	for i := 0; i < cfg.PCs; i++ {
		g.pcs = append(g.pcs, mem.PCOf(0x600000+cfg.Region*0x1000+uint64(i)*24))
	}
	g.Reset()
	return g
}

// Next returns a random access, biased toward the hot subset.
//
//chromevet:hot
func (g *WorkingSet) Next() Record {
	var blk uint64
	if g.hot > 0 && g.r.Float64() < g.hotFrac {
		blk = g.r.Uint64N(g.hot)
	} else {
		blk = g.r.Uint64N(g.blocks)
	}
	pc := g.pcs[g.r.IntN(len(g.pcs))]
	w := g.wfrac > 0 && g.r.Float64() < g.wfrac
	return Record{
		PC:    pc,
		Addr:  g.base.Plus(blk * mem.BlockSize),
		Write: w,
		Gap:   g.gap,
	}
}

// Reset reseeds the generator.
func (g *WorkingSet) Reset() { g.r = rng(g.seed ^ 0x134551) }

// Name returns the configured name.
func (g *WorkingSet) Name() string { return g.name }

// ---------------------------------------------------------------------------
// PointerChase: dependent traversal of a shuffled linked structure.

// PointerChase models linked-data-structure traversal (e.g. mcf, astar):
// the nodes form one random Hamiltonian cycle (a Sattolo single-cycle
// permutation), so the traversal covers the whole footprint before
// repeating, and loads are marked Dependent so the core model serializes
// them.
type PointerChase struct {
	name   string
	base   mem.Addr
	nodes  uint64
	next   []uint32 // next[i] = successor node of i (single cycle)
	cur    uint64
	gap    uint8
	pc     mem.PC
	seed   uint64
	stride uint64 // node size in bytes
	r      *rand.Rand
	// aux adds an independent payload access after every chase step with
	// probability auxFrac, modeling per-node data processing. pending is
	// held by value (guarded by hasPending) so queueing one never
	// escapes to the heap.
	auxFrac    float64
	pending    Record
	hasPending bool
}

// PointerChaseConfig parameterizes a PointerChase generator.
type PointerChaseConfig struct {
	Name     string
	Region   uint64
	Size     uint64 // structure footprint in bytes
	NodeSize uint64 // bytes per node (>= BlockSize recommended)
	Gap      uint8
	AuxFrac  float64 // probability of a payload access per node
	Seed     uint64
}

// NewPointerChase builds a pointer-chasing generator.
func NewPointerChase(cfg PointerChaseConfig) *PointerChase {
	if cfg.Size == 0 {
		cfg.Size = 32 << 20
	}
	if cfg.NodeSize == 0 {
		cfg.NodeSize = 2 * mem.BlockSize
	}
	g := &PointerChase{
		name:    cfg.Name,
		base:    regionBase(cfg.Region),
		nodes:   cfg.Size / cfg.NodeSize,
		stride:  cfg.NodeSize,
		gap:     cfg.Gap,
		pc:      mem.PCOf(0x700000 + cfg.Region*0x1000),
		seed:    cfg.Seed,
		auxFrac: cfg.AuxFrac,
	}
	// Sattolo's algorithm: a uniform random cyclic permutation, so the
	// chase is one cycle through every node.
	pr := rng(cfg.Seed ^ 0x5a770170)
	g.next = make([]uint32, g.nodes)
	for i := range g.next {
		g.next[i] = uint32(i)
	}
	for i := len(g.next) - 1; i > 0; i-- {
		j := pr.IntN(i)
		g.next[i], g.next[j] = g.next[j], g.next[i]
	}
	g.Reset()
	return g
}

// Next returns the next chase step (or a payload access following one).
//
//chromevet:hot
func (g *PointerChase) Next() Record {
	if g.hasPending {
		g.hasPending = false
		return g.pending
	}
	g.cur = uint64(g.next[g.cur])
	addr := g.base.Plus(g.cur * g.stride)
	if g.auxFrac > 0 && g.r.Float64() < g.auxFrac {
		g.pending = Record{
			PC:   g.pc + 16,
			Addr: addr + mem.BlockSize,
			Gap:  2,
		}
		g.hasPending = true
	}
	return Record{PC: g.pc, Addr: addr, Dependent: true, Gap: g.gap}
}

// Reset restarts the traversal from node zero.
func (g *PointerChase) Reset() {
	g.cur = 0
	g.hasPending = false
	g.r = rng(g.seed ^ 0x9ff001)
}

// Name returns the configured name.
func (g *PointerChase) Name() string { return g.name }

// ---------------------------------------------------------------------------
// Mixed: probabilistic interleaving of sub-generators.

// Mixed interleaves several sub-generators according to fixed weights,
// modeling workloads with several concurrent access idioms.
type Mixed struct {
	name    string
	subs    []Generator
	weights []float64 // cumulative
	r       *rand.Rand
	seed    uint64
}

// NewMixed builds a weighted interleaving of the given generators. The
// weights need not sum to one; they are normalized.
func NewMixed(name string, seed uint64, subs []Generator, weights []float64) *Mixed {
	if len(subs) == 0 || len(subs) != len(weights) {
		panic("trace: NewMixed requires equal, non-zero sub/weight counts")
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	cum := make([]float64, len(weights))
	var acc float64
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	g := &Mixed{name: name, subs: subs, weights: cum, seed: seed}
	g.Reset()
	return g
}

// Next picks a sub-generator by weight and returns its next record.
//
//chromevet:hot
func (g *Mixed) Next() Record {
	x := g.r.Float64()
	for i, c := range g.weights {
		if x <= c {
			return g.subs[i].Next()
		}
	}
	return g.subs[len(g.subs)-1].Next()
}

// Reset rewinds all sub-generators and the selector.
func (g *Mixed) Reset() {
	for _, s := range g.subs {
		s.Reset()
	}
	g.r = rng(g.seed ^ 0xabcde1)
}

// Name returns the configured name.
func (g *Mixed) Name() string { return g.name }

// ---------------------------------------------------------------------------
// Phased: time-multiplexing of sub-generators (program phases).

// Phased switches between sub-generators every phaseLen records, modeling
// phase-changing workloads (the adaptability motivation in paper §III-B).
type Phased struct {
	name     string
	subs     []Generator
	phaseLen uint64
	count    uint64
	idx      int
}

// NewPhased builds a phase-switching generator.
func NewPhased(name string, phaseLen uint64, subs ...Generator) *Phased {
	if len(subs) == 0 {
		panic("trace: NewPhased requires at least one sub-generator")
	}
	if phaseLen == 0 {
		phaseLen = 50000
	}
	return &Phased{name: name, subs: subs, phaseLen: phaseLen}
}

// Next returns the next record of the current phase.
//
//chromevet:hot
func (g *Phased) Next() Record {
	rec := g.subs[g.idx].Next()
	g.count++
	if g.count%g.phaseLen == 0 {
		g.idx = (g.idx + 1) % len(g.subs)
	}
	return rec
}

// Reset rewinds all phases and returns to the first.
func (g *Phased) Reset() {
	for _, s := range g.subs {
		s.Reset()
	}
	g.count = 0
	g.idx = 0
}

// Name returns the configured name.
func (g *Phased) Name() string { return g.name }
