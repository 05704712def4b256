package chrome

import (
	"fmt"

	"chrome/internal/mem"
)

// FeatureKind identifies one program feature from the paper's Table I
// catalog. CHROME's state vector is a selection of these; the paper's
// feature-selection study (§IV-A, Fig. 15) settles on {PCSignature,
// PageNumber}, which is this package's default.
type FeatureKind uint8

const (
	// FeatPCSignature is the hashed PC ⊕ hit/miss ⊕ is_prefetch ⊕ core
	// signature (Table I "PC", with the paper's §IV-A signature folding).
	FeatPCSignature FeatureKind = iota
	// FeatPCHistory is the hash of the last 4 PCs of the core's LLC
	// accesses (Table I "Sequence of last 4 PCs").
	FeatPCHistory
	// FeatAddress is the block-granular memory address (Table I "Memory
	// address").
	FeatAddress
	// FeatDelta is the signed block delta from the core's previous access
	// (Table I "Memory address delta").
	FeatDelta
	// FeatDeltaHistory is the hash of the last 4 block deltas (Table I
	// "Sequence of last 4 deltas").
	FeatDeltaHistory
	// FeatPageNumber is the physical page number (Table I "Page number").
	FeatPageNumber
	// FeatPageOffset is the block offset within the page (Table I "Page
	// offset").
	FeatPageOffset
	// FeatPCDelta combines the PC signature with the current delta
	// (Table I "PC + delta").
	FeatPCDelta
	// FeatPCPage combines the PC signature with the page number (Table I
	// "PC + page number").
	FeatPCPage
	// FeatPCPageOffset combines the PC signature with the page offset
	// (Table I "PC + page offset").
	FeatPCPageOffset
	numFeatureKinds
)

// String names the feature kind.
func (k FeatureKind) String() string {
	switch k {
	case FeatPCSignature:
		return "PC"
	case FeatPCHistory:
		return "PC-hist4"
	case FeatAddress:
		return "addr"
	case FeatDelta:
		return "delta"
	case FeatDeltaHistory:
		return "delta-hist4"
	case FeatPageNumber:
		return "PN"
	case FeatPageOffset:
		return "page-off"
	case FeatPCDelta:
		return "PC+delta"
	case FeatPCPage:
		return "PC+page"
	case FeatPCPageOffset:
		return "PC+page-off"
	}
	return fmt.Sprintf("feature(%d)", k)
}

// AllFeatureKinds returns the full Table I catalog.
func AllFeatureKinds() []FeatureKind {
	out := make([]FeatureKind, 0, numFeatureKinds)
	for k := FeatureKind(0); k < numFeatureKinds; k++ {
		out = append(out, k)
	}
	return out
}

// historyDepth is the Table I history length ("last 4").
const historyDepth = 4

// featureContext tracks the per-core running state some features need:
// recent PCs and address deltas.
type featureContext struct {
	lastBlock uint64
	hasLast   bool
	pcHist    [historyDepth]mem.PC
	deltaHist [historyDepth]int64
}

// observe advances the context with a new access and returns the delta of
// this access relative to the previous one (0 on the first access).
//
//chromevet:hot
func (fc *featureContext) observe(pc mem.PC, addr mem.Addr) int64 {
	blk := addr.Block().Uint64()
	var delta int64
	if fc.hasLast {
		delta = int64(blk) - int64(fc.lastBlock)
	}
	fc.lastBlock = blk
	fc.hasLast = true
	copy(fc.pcHist[1:], fc.pcHist[:historyDepth-1])
	fc.pcHist[0] = pc
	copy(fc.deltaHist[1:], fc.deltaHist[:historyDepth-1])
	fc.deltaHist[0] = delta
	return delta
}

//chromevet:hot
func (fc *featureContext) pcHistHash() uint64 {
	var h uint64
	for i, pc := range fc.pcHist {
		h = mem.HashCombine(h, pc.Uint64()+uint64(i))
	}
	return h
}

//chromevet:hot
func (fc *featureContext) deltaHistHash() uint64 {
	var h uint64
	for i, d := range fc.deltaHist {
		h = mem.HashCombine(h, uint64(d)+uint64(i)*0x9E37)
	}
	return h
}

// extractor computes state-vector feature values for accesses. It holds
// one featureContext per core; a context may only be touched by accesses
// from its own core, or per-core feature histories would bleed into each
// other.
type extractor struct {
	kinds []FeatureKind
	ctx   []featureContext
}

func newExtractor(kinds []FeatureKind, cores int) *extractor {
	if len(kinds) == 0 {
		panic("chrome: empty feature selection")
	}
	if len(kinds) > MaxStateFeatures {
		panic(fmt.Sprintf("chrome: at most %d state features supported, got %d", MaxStateFeatures, len(kinds)))
	}
	if cores <= 0 {
		cores = 1
	}
	return &extractor{kinds: kinds, ctx: make([]featureContext, cores)}
}

// pcBase folds the paper's signature bits (hit/miss, is_prefetch, core)
// into the raw PC.
//
//chromevet:hot
func pcBase(acc mem.Access, hit bool) uint64 {
	x := acc.PC.Uint64()
	if hit {
		x ^= 0x517C_C1B7_2722_0A95
	}
	if acc.IsPrefetch() {
		x ^= 0xABCD_EF01_2345_6789
	}
	x ^= acc.Core.Uint64() << 56
	return x
}

// state computes the feature vector for one access, advancing the per-core
// context exactly once.
//
//chromevet:hot
func (e *extractor) state(acc mem.Access, hit bool) State {
	core := acc.Core
	if core.Int() < 0 || core.Int() >= len(e.ctx) {
		core = 0
	}
	fc := &e.ctx[core]
	delta := fc.observe(acc.PC, acc.Addr)
	pc := pcBase(acc, hit)

	var st State
	st.n = uint8(len(e.kinds))
	for i, k := range e.kinds {
		var v uint64
		switch k {
		case FeatPCSignature:
			v = mem.Mix64(pc)
		case FeatPCHistory:
			v = fc.pcHistHash()
		case FeatAddress:
			v = acc.Addr.Block().Uint64()
		case FeatDelta:
			v = uint64(delta)
		case FeatDeltaHistory:
			v = fc.deltaHistHash()
		case FeatPageNumber:
			v = acc.Addr.PageNumber()
		case FeatPageOffset:
			v = acc.Addr.PageOffset() >> mem.BlockShift
		case FeatPCDelta:
			v = mem.HashCombine(pc, uint64(delta))
		case FeatPCPage:
			v = mem.HashCombine(pc, acc.Addr.PageNumber())
		case FeatPCPageOffset:
			v = mem.HashCombine(pc, acc.Addr.PageOffset()>>mem.BlockShift)
		}
		st.f[i] = v
	}
	return st
}
