package policy

import (
	"chrome/internal/cache"
	"chrome/internal/mem"
)

// Hawkeye implements the Hawkeye replacement policy (Jain & Lin, ISCA
// 2016): OPTgen adjudicates, on sampled sets, whether Belady's OPT would
// have cached each re-accessed block; a PC-indexed table of saturating
// counters learns which instructions load cache-friendly blocks; and an
// RRIP-style chooser evicts predicted cache-averse lines first.
type Hawkeye struct {
	sampler  Sampler
	optgens  []*optGen
	counters []uint8 // 3-bit saturating, friendly when >= 4
	sigBits  uint

	maxRRPV uint8
	rrpv    [][]uint8
	// friendly and lineSig are per-line prediction metadata.
	friendly [][]bool
	lineSig  [][]uint64
}

// hawkeyeTableBits sizes the predictor at 8K entries.
const hawkeyeTableBits = 13

// NewHawkeye builds a Hawkeye policy for the given LLC geometry.
func NewHawkeye(sets, ways, sampled int) *Hawkeye {
	h := &Hawkeye{
		sampler:  NewSampler(sets, sampled),
		counters: make([]uint8, 1<<hawkeyeTableBits),
		sigBits:  hawkeyeTableBits,
		maxRRPV:  7,
		rrpv:     newRRPV(sets, ways),
		friendly: make([][]bool, sets),
		lineSig:  make([][]uint64, sets),
	}
	for i := range h.counters {
		h.counters[i] = 4 // weakly friendly at start
	}
	h.optgens = make([]*optGen, h.sampler.Count())
	for i := range h.optgens {
		h.optgens[i] = newOptGen(ways)
	}
	for s := 0; s < sets; s++ {
		h.friendly[s] = make([]bool, ways)
		h.lineSig[s] = make([]uint64, ways)
	}
	return h
}

// Name implements cache.Policy.
func (*Hawkeye) Name() string { return "Hawkeye" }

func (h *Hawkeye) sig(acc mem.Access) uint64 {
	return Signature(acc.PC, acc.IsPrefetch(), acc.Core, h.sigBits)
}

// train runs OPTgen on a sampled set and updates the predictor.
func (h *Hawkeye) train(set mem.SetIdx, acc mem.Access) {
	si := h.sampler.Index(set)
	if si < 0 {
		return
	}
	label, prevSig, _ := h.optgens[si].Access(acc.Addr.Block(), h.sig(acc), [pchrDepth]uint16{})
	switch label {
	case optHit:
		if h.counters[prevSig] < 7 {
			h.counters[prevSig]++
		}
	case optMiss:
		if h.counters[prevSig] > 0 {
			h.counters[prevSig]--
		}
	}
}

// predictFriendly reports the predictor's verdict for the access.
func (h *Hawkeye) predictFriendly(acc mem.Access) bool {
	return h.counters[h.sig(acc)] >= 4
}

// Victim implements cache.Policy: evict a cache-averse line (rrpv==max) if
// one exists; otherwise evict the oldest friendly line and detrain its
// signature (OPT would not have kept it this long).
func (h *Hawkeye) Victim(set mem.SetIdx, blocks []cache.Block, acc mem.Access) (int, bool) {
	h.train(set, acc)
	if w := invalidWay(blocks); w >= 0 {
		return w, false
	}
	r := h.rrpv[set]
	for w := range r {
		if r[w] >= h.maxRRPV {
			return w, false
		}
	}
	// No averse line: evict the max-rrpv (oldest) friendly line. Detrain
	// its signature only on sampled sets, keeping the train/detrain volume
	// balanced with OPTgen's sampled training.
	best, bestR := 0, uint8(0)
	for w := range r {
		if r[w] >= bestR {
			best, bestR = w, r[w]
		}
	}
	if h.sampler.Index(set) >= 0 {
		sig := h.lineSig[set][best]
		if h.counters[sig] > 0 {
			h.counters[sig]--
		}
	}
	return best, false
}

// OnHit implements cache.Policy.
func (h *Hawkeye) OnHit(set mem.SetIdx, way int, _ []cache.Block, acc mem.Access) {
	h.train(set, acc)
	friendly := h.predictFriendly(acc)
	h.friendly[set][way] = friendly
	h.lineSig[set][way] = h.sig(acc)
	if friendly {
		h.rrpv[set][way] = 0
	} else {
		h.rrpv[set][way] = h.maxRRPV
	}
}

// OnFill implements cache.Policy.
func (h *Hawkeye) OnFill(set mem.SetIdx, way int, _ []cache.Block, acc mem.Access) {
	friendly := h.predictFriendly(acc)
	h.friendly[set][way] = friendly
	h.lineSig[set][way] = h.sig(acc)
	if friendly {
		// Age other friendly lines so older ones become eviction candidates.
		for w := range h.rrpv[set] {
			if w != way && h.friendly[set][w] && h.rrpv[set][w] < h.maxRRPV-1 {
				h.rrpv[set][w]++
			}
		}
		h.rrpv[set][way] = 0
	} else {
		h.rrpv[set][way] = h.maxRRPV
	}
}

// OnEvict implements cache.Policy: the OnFill that follows on the same way
// sets its metadata.
func (*Hawkeye) OnEvict(mem.SetIdx, int, []cache.Block) {}
