// Package mem defines the shared value types used throughout the CHROME
// simulator: memory accesses, access kinds, block/page address arithmetic,
// and small hashing utilities used by predictors and Q-table indexing.
//
// # Dimension safety
//
// The simulator moves several physically incompatible quantities through
// one pipeline — cycles, committed-instruction counts, byte addresses,
// 64-byte block numbers, set indices, PCs, core indices. Each gets its own
// defined type here so that mixing two of them (storing a cycle into an
// instruction counter, double-applying a block shift) is a compile error
// rather than a quietly wrong speedup curve. Conversions between the
// domains go through the named conversion points below (Addr.Block,
// BlockAddr.Addr, BlockAddr.Set, the XxxOf constructors, the
// Uint64/Int accessors). Go still compiles a raw conversion between two
// of the types; one that crosses a dimension changes simulated behaviour,
// so the committed digests catch it (DESIGN.md §6.2).
//
// All addresses are byte addresses. A cache block is 64 bytes and a page is
// 4 KiB, matching the configuration in the CHROME paper (Table V).
package mem

// Architectural constants shared by every level of the simulated hierarchy.
const (
	// BlockSize is the cache line size in bytes.
	BlockSize = 64
	// BlockShift is log2(BlockSize).
	BlockShift = 6
	// PageSize is the (physical) page size in bytes.
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12
)

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// BlockAddr is a cache-block number: a byte address with the low
// BlockShift bits dropped. It is a distinct type from Addr so that a block
// shift can never be applied twice (the classic silent ">>6 >>6" bug) and
// block numbers never flow back into byte-address arithmetic unconverted.
type BlockAddr uint64

// PC is the program counter of a simulated instruction.
type PC uint64

// Cycle is a time quantity in core clock cycles: either an absolute
// simulation timestamp or a cycle-count duration (latency). Cycle
// arithmetic among Cycles is well-formed; mixing with Instr is not.
type Cycle uint64

// Instr is a committed-instruction count (retired-instruction budgets,
// ROB positions, IPC numerators).
type Instr uint64

// SetIdx is a cache set index, produced from a BlockAddr by masking.
type SetIdx int

// CoreID is a simulated core index.
type CoreID int

// AddrOf converts a raw integer (deserialized bytes, synthesized address
// arithmetic) into an Addr. This is the blessed raw entry point; prefer
// Addr.Plus for offset arithmetic on an existing address.
func AddrOf(x uint64) Addr { return Addr(x) }

// BlockAddrOf converts a raw block number into a BlockAddr.
func BlockAddrOf(x uint64) BlockAddr { return BlockAddr(x) }

// PCOf converts a raw integer into a PC.
func PCOf(x uint64) PC { return PC(x) }

// CycleOf converts a raw cycle count (config latencies, deserialized
// timestamps) into a Cycle.
func CycleOf(x uint64) Cycle { return Cycle(x) }

// InstrOf converts a raw instruction count (config budgets) into an Instr.
func InstrOf(x uint64) Instr { return Instr(x) }

// SetIdxOf converts a raw set number into a SetIdx.
func SetIdxOf(x int) SetIdx { return SetIdx(x) }

// CoreIDOf converts a raw core index (loop variables, config counts) into
// a CoreID.
func CoreIDOf(x int) CoreID { return CoreID(x) }

// Uint64 returns the raw byte address (serialization, hashing).
func (a Addr) Uint64() uint64 { return uint64(a) }

// BlockAligned returns the address truncated to its cache-block base.
func (a Addr) BlockAligned() Addr { return a &^ (BlockSize - 1) }

// Block returns the cache-block number (address >> 6). This is the single
// blessed byte→block conversion.
func (a Addr) Block() BlockAddr { return BlockAddr(uint64(a) >> BlockShift) }

// Plus returns the address offset by off bytes.
func (a Addr) Plus(off uint64) Addr { return a + Addr(off) }

// Delta returns the signed byte distance a-b (stride detection).
func (a Addr) Delta(b Addr) int64 { return int64(a) - int64(b) }

// PageNumber returns the physical page number (address >> 12).
func (a Addr) PageNumber() uint64 { return uint64(a) >> PageShift }

// PageOffset returns the offset of the address within its page.
func (a Addr) PageOffset() uint64 { return uint64(a) & (PageSize - 1) }

// Uint64 returns the raw block number (serialization, hashing, row
// decomposition).
func (b BlockAddr) Uint64() uint64 { return uint64(b) }

// Addr returns the block's base byte address (block << 6). This is the
// single blessed block→byte conversion.
func (b BlockAddr) Addr() Addr { return Addr(uint64(b) << BlockShift) }

// Set extracts the cache set index of the block under a sets-1 mask
// (power-of-two set counts).
func (b BlockAddr) Set(mask uint64) SetIdx { return SetIdx(uint64(b) & mask) }

// PlusBlocks returns the block number offset by delta blocks (prefetcher
// stride arithmetic; delta may be negative).
func (b BlockAddr) PlusBlocks(delta int64) BlockAddr { return BlockAddr(uint64(b) + uint64(delta)) }

// Uint64 returns the raw program counter (serialization, hashing).
func (p PC) Uint64() uint64 { return uint64(p) }

// Uint64 returns the raw cycle count (serialization, reporting).
func (c Cycle) Uint64() uint64 { return uint64(c) }

// Div returns the dimensionless ratio c/per (epoch indices, window
// counts). Dividing two same-dimension quantities cancels the unit, so the
// result is deliberately a raw integer.
func (c Cycle) Div(per Cycle) uint64 { return uint64(c / per) }

// Uint64 returns the raw instruction count (serialization, reporting).
func (i Instr) Uint64() uint64 { return uint64(i) }

// Int returns the raw set index (dense tables, reporting).
func (s SetIdx) Int() int { return int(s) }

// Uint64 returns the raw set index widened for hashing.
func (s SetIdx) Uint64() uint64 { return uint64(s) }

// Int returns the raw core index (dense tables, reporting).
func (c CoreID) Int() int { return int(c) }

// Uint64 returns the raw core index widened for hashing.
func (c CoreID) Uint64() uint64 { return uint64(c) }

// AccessType distinguishes the kinds of requests a cache level observes.
type AccessType uint8

const (
	// Load is a demand read.
	Load AccessType = iota
	// Store is a demand write (write-allocate).
	Store
	// Prefetch is a hardware-prefetcher-initiated fill request.
	Prefetch
	// Writeback is a dirty eviction from an upper level.
	Writeback
)

// String returns the lower-case name of the access type.
func (t AccessType) String() string {
	switch t {
	case Load:
		return "load"
	case Store:
		return "store"
	case Prefetch:
		return "prefetch"
	case Writeback:
		return "writeback"
	}
	return "unknown"
}

// IsDemand reports whether the access is a demand load or store.
func (t AccessType) IsDemand() bool { return t == Load || t == Store }

// Access describes one memory request as seen by a cache level.
type Access struct {
	// PC is the program counter of the instruction that generated the
	// request. For prefetches it is the PC of the triggering instruction.
	PC PC
	// Addr is the requested byte address.
	Addr Addr
	// Type is the request kind.
	Type AccessType
	// Core is the issuing core's index.
	Core CoreID
	// Cycle is the global cycle at which the request reaches the level.
	Cycle Cycle
}

// IsPrefetch reports whether the access was generated by a prefetcher.
func (a Access) IsPrefetch() bool { return a.Type == Prefetch }

// Mix64 is the SplitMix64 finalizer: a fast, high-quality 64-bit mixing
// function used for hashing addresses, PCs, and feature indices.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// FoldHash hashes x into [0, 1<<bits) by mixing and folding the halves.
func FoldHash(x uint64, bits uint) uint64 {
	h := Mix64(x)
	h ^= h >> 32
	return h & ((1 << bits) - 1)
}

// HashCombine mixes two values into one hash, order-sensitively.
func HashCombine(a, b uint64) uint64 {
	return Mix64(a*0x9e3779b97f4a7c15 + Mix64(b))
}
