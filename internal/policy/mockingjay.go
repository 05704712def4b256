package policy

import (
	"chrome/internal/cache"
	"chrome/internal/mem"
)

// Mockingjay implements the mechanism of Mockingjay (Shah, Jain & Lin, HPCA
// 2022): fine-grained reuse-distance prediction per PC signature trained by
// a sampled cache, estimated-time-remaining (ETR) eviction, integrated
// bypassing for blocks predicted to reuse beyond the cache's reach, and
// prefetch-aware signatures. Its policies are statically parameterized
// (fixed thresholds), which is the adaptability limitation the CHROME paper
// demonstrates in §III-B.
type Mockingjay struct {
	sampler Sampler
	// Per-sampled-set reuse-distance measurement history.
	samples [][]mjSample
	// rdp maps signature -> predicted reuse distance (set-access quanta).
	// Predictions are clamped to maxRD = 16*ways <= 4096 for any
	// modeled associativity (ways <= 256).
	rdp []uint16

	// Per-set access clock (quanta) and per-line predicted next-use time.
	clock   []uint64
	nextUse [][]uint64

	ways       int
	maxRD      uint16 // "infinite" reuse distance
	bypassRD   uint16 // demand bypass threshold
	bypassRDPF uint16 // prefetch bypass threshold (more aggressive)
}

type mjSample struct {
	block mem.BlockAddr
	sig   uint64
	time  uint64
}

const mjTableBits = 12 // 4K RDP entries

// NewMockingjay builds a Mockingjay policy for the given LLC geometry.
func NewMockingjay(sets, ways, sampled int) *Mockingjay {
	window := uint16(8 * ways)
	m := &Mockingjay{
		sampler:    NewSampler(sets, sampled),
		rdp:        make([]uint16, 1<<mjTableBits),
		clock:      make([]uint64, sets),
		nextUse:    make([][]uint64, sets),
		ways:       ways,
		maxRD:      window * 2,
		bypassRD:   window * 2, // demands bypass only at "infinite" RD
		bypassRDPF: window,     // prefetches bypass at the window edge
	}
	m.samples = make([][]mjSample, m.sampler.Count())
	for i := range m.samples {
		// Pre-size each sampled-set history to its 8*ways bound so train()
		// never grows it on the per-access path.
		m.samples[i] = make([]mjSample, 0, 8*ways)
	}
	for s := 0; s < sets; s++ {
		m.nextUse[s] = make([]uint64, ways)
	}
	return m
}

// Name implements cache.Policy.
func (*Mockingjay) Name() string { return "Mockingjay" }

func (m *Mockingjay) sig(acc mem.Access) uint64 {
	return Signature(acc.PC, acc.IsPrefetch(), acc.Core, mjTableBits)
}

// train measures reuse distances on sampled sets and updates the RDP with
// a temporal-difference step toward each new sample.
//
//chromevet:hot
func (m *Mockingjay) train(set mem.SetIdx, acc mem.Access) {
	si := m.sampler.Index(set)
	if si < 0 {
		return
	}
	now := m.clock[set]
	block := acc.Addr.Block()
	hist := m.samples[si]
	window := uint64(8 * m.ways)
	for i := range hist {
		if hist[i].block == block {
			rd := now - hist[i].time
			if rd > uint64(m.maxRD) {
				rd = uint64(m.maxRD)
			}
			m.update(hist[i].sig, uint16(rd))
			hist[i] = mjSample{block: block, sig: m.sig(acc), time: now}
			return
		}
	}
	// Age out samples beyond the window: their blocks were not reused in
	// time, so train their signatures toward the infinite distance.
	kept := hist[:0]
	for _, s := range hist {
		if now-s.time > window {
			m.update(s.sig, m.maxRD)
			continue
		}
		kept = append(kept, s)
	}
	hist = kept
	if len(hist) >= 8*m.ways {
		m.update(hist[0].sig, m.maxRD)
		// Copy down instead of re-slicing hist[1:]: front-slicing strands
		// capacity and makes the append below reallocate periodically.
		copy(hist, hist[1:])
		hist = hist[:len(hist)-1]
	}
	// len(hist) < 8*ways here and NewMockingjay pre-sizes cap to 8*ways,
	// so the append never reallocates.
	m.samples[si] = append(hist, mjSample{block: block, sig: m.sig(acc), time: now})
}

// update moves the prediction for sig an eighth of the way to the sample.
// Every caller clamps sample to maxRD, so the prediction stays within it.
func (m *Mockingjay) update(sig uint64, sample uint16) {
	cur := m.rdp[sig]
	if cur == 0 {
		m.rdp[sig] = sample
		return
	}
	m.rdp[sig] = uint16(int(cur) + (int(sample)-int(cur))/8)
}

// predictRD returns the predicted reuse distance for the access. Unseen
// signatures predict a middle distance so they are cached but replaceable.
func (m *Mockingjay) predictRD(acc mem.Access) uint16 {
	rd := m.rdp[m.sig(acc)]
	if rd == 0 {
		return uint16(2 * m.ways)
	}
	return rd
}

// Victim implements cache.Policy: bypass blocks predicted to reuse beyond
// the threshold; otherwise evict the line with the latest predicted next
// use (largest estimated time remaining).
//
//chromevet:hot
func (m *Mockingjay) Victim(set mem.SetIdx, blocks []cache.Block, acc mem.Access) (int, bool) {
	m.train(set, acc)
	m.clock[set]++
	rd := m.predictRD(acc)
	threshold := m.bypassRD
	if acc.IsPrefetch() {
		threshold = m.bypassRDPF
	}
	if rd >= threshold {
		return 0, true
	}
	if w := invalidWay(blocks); w >= 0 {
		return w, false
	}
	// Victim: overdue lines (negative ETR — their predicted reuse already
	// passed, so they are predicted dead) are evicted first, most-overdue
	// first; with no overdue line, the line whose next use is farthest in
	// the future goes. Ranking overdue above far-future matters when RD
	// predictions are uniform: plain max-|ETR| would evict the most
	// recently refreshed line (anti-recency).
	// Future ETRs are compared at coarse granularity with recency breaking
	// ties, so lines with indistinguishable predictions fall back to
	// LRU-like behaviour instead of following prediction noise.
	now := int64(m.clock[set])
	const overdueBias = int64(1) << 32
	best, bestKey, bestTouch := 0, int64(-1), ^mem.Cycle(0)
	var bestETR int64
	for w := range blocks {
		etr := int64(m.nextUse[set][w]) - now
		key := etr / int64(m.ways)
		if etr < 0 {
			key = overdueBias - etr
		}
		touch := blocks[w].LastTouch
		if key > bestKey || (key == bestKey && touch < bestTouch) {
			best, bestKey, bestTouch, bestETR = w, key, touch, etr
		}
	}
	// If the incoming block's predicted reuse is clearly later than the
	// victim's remaining time, caching it would only displace more useful
	// data: bypass. (Overdue victims are simply replaced.) The grace margin
	// absorbs the prediction noise of signatures that mix short- and
	// long-reuse blocks.
	if bestETR > 0 && int64(rd) > bestETR+int64(4*m.ways) {
		return 0, true
	}
	return best, false
}

// OnHit implements cache.Policy.
//
//chromevet:hot
func (m *Mockingjay) OnHit(set mem.SetIdx, way int, _ []cache.Block, acc mem.Access) {
	m.train(set, acc)
	m.clock[set]++
	m.nextUse[set][way] = m.clock[set] + uint64(m.predictRD(acc))
}

// OnFill implements cache.Policy.
//
//chromevet:hot
func (m *Mockingjay) OnFill(set mem.SetIdx, way int, _ []cache.Block, acc mem.Access) {
	m.nextUse[set][way] = m.clock[set] + uint64(m.predictRD(acc))
}

// OnEvict implements cache.Policy: the OnFill that follows on the same way
// sets its next use.
func (*Mockingjay) OnEvict(mem.SetIdx, int, []cache.Block) {}
