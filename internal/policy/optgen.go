package policy

import "chrome/internal/mem"

// optGen simulates Belady's OPT decision for one sampled cache set
// (Jain & Lin, ISCA 2016). Time is quantized to one quantum per access to
// the set. For each re-access within the usage window, OPT would have hit
// iff every quantum of the usage interval had residual cache capacity; on
// such a hit the interval's occupancy is incremented.
type optGen struct {
	capacity  int      // number of ways
	window    int      // usage-interval window in quanta (8 * ways)
	occupancy []uint8  // ring buffer of per-quantum occupancy
	clock     uint64   // quanta elapsed (accesses to this set)
	history   []optRef // bounded last-access records for this set
}

// optRef records the previous access to a block in a sampled set together
// with the training context of that access.
type optRef struct {
	block mem.BlockAddr // block number
	time  uint64        // quantum of the access
	sig   uint64        // predictor signature of the accessing instruction
	// ctx carries policy-specific training context (Glider's ISVM weight
	// indices); unused by Hawkeye.
	ctx [pchrDepth]uint16
}

// newOptGen builds an OPT simulator for one set of the given associativity.
func newOptGen(ways int) *optGen {
	w := 8 * ways
	return &optGen{
		capacity:  ways,
		window:    w,
		occupancy: make([]uint8, w),
		history:   make([]optRef, 0, w),
	}
}

// optLabel is the training outcome of one OPT decision.
type optLabel int8

const (
	optNone optLabel = iota // no previous access in window; no label
	optHit                  // OPT would have cached the block (train positive)
	optMiss                 // OPT would have evicted it (train negative)
)

// Access advances the OPT simulation with an access to block. It returns
// the label for the *previous* access to the block (the one whose caching
// decision is now adjudicated) together with that access's signature and
// context. The current access is then recorded with sig/ctx for future
// adjudication.
//
//chromevet:hot
func (g *optGen) Access(block mem.BlockAddr, sig uint64, ctx [pchrDepth]uint16) (optLabel, uint64, [pchrDepth]uint16) {
	now := g.clock
	g.clock++
	// The slot for the new quantum starts empty.
	g.occupancy[now%uint64(g.window)] = 0

	label := optNone
	var prevSig uint64
	var prevCtx [pchrDepth]uint16

	// Find and remove the previous reference to this block.
	for i := range g.history {
		if g.history[i].block == block {
			prev := g.history[i]
			g.history = append(g.history[:i], g.history[i+1:]...)
			prevSig, prevCtx = prev.sig, prev.ctx
			if now-prev.time < uint64(g.window) {
				if g.intervalFits(prev.time, now) {
					g.fillInterval(prev.time, now)
					label = optHit
				} else {
					label = optMiss
				}
			}
			break
		}
	}

	// Record the current access, bounding the history to the window size.
	// Copy down rather than re-slicing history[1:]: front-slicing strands
	// the capacity newOptGen preallocated and the append below would then
	// reallocate once per window.
	if len(g.history) >= g.window {
		copy(g.history, g.history[1:])
		g.history = g.history[:len(g.history)-1]
	}
	g.history = append(g.history, optRef{block: block, time: now, sig: sig, ctx: ctx})
	return label, prevSig, prevCtx
}

// intervalFits reports whether every quantum in [from, to) has residual
// capacity.
func (g *optGen) intervalFits(from, to uint64) bool {
	for t := from; t < to; t++ {
		if int(g.occupancy[t%uint64(g.window)]) >= g.capacity {
			return false
		}
	}
	return true
}

// fillInterval increments occupancy over [from, to).
func (g *optGen) fillInterval(from, to uint64) {
	for t := from; t < to; t++ {
		g.occupancy[t%uint64(g.window)]++
	}
}
