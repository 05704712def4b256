package policy

import (
	"chrome/internal/cache"
	"chrome/internal/mem"
)

// pchrDepth is the PC-history-register depth used by Glider's ISVM
// features (the last 5 LLC-access PCs, per the Glider paper's deployed
// online model).
const pchrDepth = 5

// Glider implements the hardware-deployable form of Glider (Shi et al.,
// MICRO 2019): an Integer Support Vector Machine per load PC over the
// PC-history register, trained online with OPTgen-derived labels. (The
// paper's offline attention LSTM exists only to justify this feature
// choice; the deployed predictor is the ISVM implemented here.)
type Glider struct {
	sampler Sampler
	optgens []*optGen

	// isvm[pcIndex][weightIndex] are the per-PC weights; each PCHR element
	// hashes to one of isvmWeights weight slots.
	isvm [][]int16

	// pchr is the per-core history of the last pchrDepth hashed PCs.
	pchr [][pchrDepth]uint16

	maxRRPV uint8
	rrpv    [][]uint8

	// pendingF carries the feature snapshot from Victim to the OnFill of
	// the same access, which the cache calls next for a miss (the policy
	// is single-threaded).
	pendingF [pchrDepth]uint16
}

const (
	gliderTableBits = 11 // 2048 per-PC ISVMs
	isvmWeights     = 16
	// Training/confidence thresholds from the Glider online design.
	gliderTrainTheta = 100
	gliderConfident  = 60
)

// NewGlider builds a Glider policy for the given LLC geometry and core count.
func NewGlider(sets, ways, cores, sampled int) *Glider {
	g := &Glider{
		sampler: NewSampler(sets, sampled),
		isvm:    make([][]int16, 1<<gliderTableBits),
		pchr:    make([][pchrDepth]uint16, cores),
		maxRRPV: 7,
		rrpv:    newRRPV(sets, ways),
	}
	g.optgens = make([]*optGen, g.sampler.Count())
	for i := range g.optgens {
		g.optgens[i] = newOptGen(ways)
	}
	return g
}

// Name implements cache.Policy.
func (*Glider) Name() string { return "Glider" }

func (g *Glider) pcIndex(acc mem.Access) uint64 {
	return Signature(acc.PC, acc.IsPrefetch(), acc.Core, gliderTableBits)
}

// features returns the current weight indices for the core's PCHR.
func (g *Glider) features(core mem.CoreID) [pchrDepth]uint16 {
	var f [pchrDepth]uint16
	for i, pc := range g.pchr[core] {
		f[i] = uint16(mem.FoldHash(uint64(pc)+uint64(i)*0x1003f, 4)) // 0..15
	}
	return f
}

// pushPC shifts the access PC into the core's history register.
func (g *Glider) pushPC(acc mem.Access) {
	h := &g.pchr[acc.Core]
	copy(h[1:], h[:pchrDepth-1])
	h[0] = uint16(mem.FoldHash(acc.PC.Uint64(), 16))
}

func (g *Glider) weights(pcIdx uint64) []int16 {
	if g.isvm[pcIdx] == nil {
		g.isvm[pcIdx] = make([]int16, isvmWeights)
	}
	return g.isvm[pcIdx]
}

// score sums the selected weights of the PC's ISVM for the given features.
func (g *Glider) score(pcIdx uint64, f [pchrDepth]uint16) int {
	w := g.weights(pcIdx)
	sum := 0
	for _, fi := range f {
		sum += int(w[fi%isvmWeights])
	}
	return sum
}

// train adjudicates via OPTgen on sampled sets and perceptron-updates the
// ISVM of the previous access's PC using the features captured then.
func (g *Glider) train(set mem.SetIdx, acc mem.Access, f [pchrDepth]uint16) {
	si := g.sampler.Index(set)
	if si < 0 {
		return
	}
	label, prevSig, prevCtx := g.optgens[si].Access(acc.Addr.Block(), g.pcIndex(acc), f)
	if label == optNone {
		return
	}
	w := g.weights(prevSig)
	sum := 0
	for _, fi := range prevCtx {
		sum += int(w[fi%isvmWeights])
	}
	switch label {
	case optHit:
		if sum < gliderTrainTheta {
			for _, fi := range prevCtx {
				w[fi%isvmWeights]++
			}
		}
	case optMiss:
		if sum > -gliderTrainTheta {
			for _, fi := range prevCtx {
				w[fi%isvmWeights]--
			}
		}
	}
}

// predict maps the ISVM score to an insertion class.
// Returns (averse, confidentFriendly).
func (g *Glider) predict(acc mem.Access, f [pchrDepth]uint16) (bool, bool) {
	s := g.score(g.pcIndex(acc), f)
	return s < 0, s >= gliderConfident
}

// observe performs the shared per-access bookkeeping (training + PCHR).
func (g *Glider) observe(set mem.SetIdx, acc mem.Access) [pchrDepth]uint16 {
	f := g.features(acc.Core)
	g.train(set, acc, f)
	g.pushPC(acc)
	return f
}

// Victim implements cache.Policy: evict an averse (rrpv==max) line first,
// otherwise the max-rrpv line.
func (g *Glider) Victim(set mem.SetIdx, blocks []cache.Block, acc mem.Access) (int, bool) {
	f := g.observe(set, acc)
	g.pendingF = f
	if w := invalidWay(blocks); w >= 0 {
		return w, false
	}
	r := g.rrpv[set]
	best, bestR := 0, uint8(0)
	for w := range r {
		if r[w] >= g.maxRRPV {
			return w, false
		}
		if r[w] >= bestR {
			best, bestR = w, r[w]
		}
	}
	return best, false
}

// OnHit implements cache.Policy.
func (g *Glider) OnHit(set mem.SetIdx, way int, _ []cache.Block, acc mem.Access) {
	f := g.observe(set, acc)
	averse, confident := g.predict(acc, f)
	switch {
	case averse:
		g.rrpv[set][way] = g.maxRRPV
	case confident:
		g.rrpv[set][way] = 0
	default:
		g.rrpv[set][way] = 1
	}
}

// OnFill implements cache.Policy.
func (g *Glider) OnFill(set mem.SetIdx, way int, _ []cache.Block, acc mem.Access) {
	averse, confident := g.predict(acc, g.pendingF)
	switch {
	case averse:
		g.rrpv[set][way] = g.maxRRPV
	case confident:
		g.rrpv[set][way] = 0
	default:
		g.rrpv[set][way] = 2
	}
}

// OnEvict implements cache.Policy: the OnFill that follows on the same way
// sets its RRPV.
func (*Glider) OnEvict(mem.SetIdx, int, []cache.Block) {}
