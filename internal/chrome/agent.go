package chrome

import (
	"math/rand/v2"

	"chrome/internal/cache"
	"chrome/internal/mem"
	"chrome/internal/policy"
)

// Agent is the CHROME reinforcement-learning cache manager. It implements
// cache.Policy for the LLC and executes Algorithm 1 of the paper: for every
// LLC request it (1) assigns accuracy rewards to matching EQ entries on
// sampled sets, (2) selects a bypass/insert/promote action by ε-greedy
// Q-lookup, (3) records the action in the EQ, and (4) on EQ eviction
// assigns not-re-referenced rewards using concurrency-aware feedback and
// performs the SARSA update.
type Agent struct {
	cfg     Config
	qt      *QTable
	eq      *EQ
	sampler policy.Sampler
	rng     *rand.Rand
	ext     *extractor

	// Obstructed reports whether a core is currently LLC-obstructed; wired
	// to the camat.Monitor by the simulator. Nil (or ConcurrencyAware
	// false) disables the OB reward variants.
	Obstructed func(core mem.CoreID) bool

	// epv holds the 2-bit Eviction Priority Value of every LLC line.
	epv [][]uint8
	// pendingEPV carries the insertion EPV from Victim to the OnFill of the
	// same access, which the cache calls next for a miss it does not bypass.
	pendingEPV uint8

	stats AgentStats
}

// AgentStats counts agent activity for reporting and the UPKSA metric.
type AgentStats struct {
	// Decisions is the total number of actions taken.
	Decisions uint64
	// Explorations is the number of ε-random actions.
	Explorations uint64
	// Bypasses is the number of bypass actions taken.
	Bypasses uint64
	// SampledAccesses counts accesses to sampled sets.
	SampledAccesses uint64
	// RewardsAC / RewardsIN / RewardsNR count reward assignments by kind.
	RewardsAC uint64
	RewardsIN uint64
	RewardsNR uint64
	// MissActions and HitActions histogram the chosen actions by trigger,
	// split by demand [0] vs prefetch [1].
	MissActions [2][NumActions]uint64
	HitActions  [2][NumActions]uint64
}

// UPKSA returns Q-table updates per kilo sampled accesses (Table VII).
func (a *Agent) UPKSA() float64 {
	if a.stats.SampledAccesses == 0 {
		return 0
	}
	return float64(a.qt.Updates()) * 1000 / float64(a.stats.SampledAccesses)
}

// Stats returns a copy of the agent's activity counters.
func (a *Agent) Stats() AgentStats { return a.stats }

// New builds a CHROME agent for an LLC with the given geometry.
func New(cfg Config, sets, ways int) *Agent {
	cfg.validate()
	// Config arrives by value, but StateFeatures is a slice: copy it so
	// agents built from one shared Config (a Scheme closure reused across
	// parallel experiment cells) never alias the caller's backing array.
	cfg.StateFeatures = append([]FeatureKind(nil), cfg.StateFeatures...)
	a := &Agent{
		cfg:     cfg,
		qt:      NewQTable(cfg),
		eq:      nil,
		sampler: policy.NewSampler(sets, cfg.SampledSets),
		rng:     rand.New(rand.NewPCG(cfg.Seed, mem.Mix64(cfg.Seed^0xC0FFEE))),
		ext:     newExtractor(cfg.StateFeatures, maxCores),
		epv:     make([][]uint8, sets),
	}
	a.eq = NewEQ(a.sampler.Count(), cfg.EQDepth)
	for s := range a.epv {
		a.epv[s] = make([]uint8, ways)
	}
	return a
}

// Name implements cache.Policy.
func (a *Agent) Name() string {
	if !a.cfg.ConcurrencyAware {
		return "N-CHROME"
	}
	return "CHROME"
}

// Config returns the agent's configuration.
func (a *Agent) Config() Config { return a.cfg }

// QTable exposes the agent's Q-table (read-mostly; used by tests/tools).
func (a *Agent) QTable() *QTable { return a.qt }

// maxCores bounds the per-core feature contexts an agent allocates.
const maxCores = 64

// state builds the RL state for an access from the configured feature
// selection (default: the §IV-A PC signature — PC folded with the hit/miss
// outcome, is_prefetch bit and core id — plus the physical page number).
// It also advances the per-core feature history, so it must be called
// exactly once per LLC access.
//
//chromevet:hot
func (a *Agent) state(acc mem.Access, hit bool) State {
	return a.ext.state(acc, hit)
}

// obstructed reports the concurrency-aware feedback for a core.
//
//chromevet:hot
func (a *Agent) obstructed(core mem.CoreID) bool {
	return a.cfg.ConcurrencyAware && a.Obstructed != nil && a.Obstructed(core)
}

// assignAccuracyReward implements Algorithm 1 lines 3-8: when a sampled-set
// request re-references an address recorded in the EQ, the recorded action
// earns R_AC (request hit) or R_IN (request missed), at demand or prefetch
// magnitude.
//
//chromevet:hot
func (a *Agent) assignAccuracyReward(q int, acc mem.Access, hit bool) {
	e := a.eq.Find(q, HashAddr(acc.Addr))
	if e == nil {
		return
	}
	var reward int8
	if hit {
		if acc.IsPrefetch() {
			reward = rewardACPrefetch
		} else {
			reward = rewardACDemand
		}
		a.stats.RewardsAC++
	} else {
		if acc.IsPrefetch() {
			reward = rewardINPrefetch
		} else {
			reward = rewardINDemand
		}
		a.stats.RewardsIN++
	}
	e.Reward = reward
	e.HasReward = true
}

// nrReward implements Algorithm 1 lines 24-34: the reward for an EQ entry
// evicted without re-reference. Bypassing on a miss and assigning EPV_H on
// a hit were "accurate no-reuse" predictions (R_AC-NR); anything else kept
// a dead block (R_IN-NR). The magnitude depends on whether the entry's core
// is LLC-obstructed.
//
//chromevet:hot
func (a *Agent) nrReward(e EQEntry) int8 {
	ob := a.obstructed(mem.CoreIDOf(int(e.Core)))
	accurate := false
	if e.TriggerHit {
		accurate = e.Action == ActionEPV2
	} else {
		accurate = e.Action == ActionBypass
	}
	switch {
	case accurate && ob:
		return rewardACNROb
	case accurate:
		return rewardACNRNob
	case ob:
		return rewardINNROb
	default:
		return rewardINNRNob
	}
}

// record implements Algorithm 1 lines 21-38 for sampled sets: push the new
// EQ entry; on queue overflow assign the NR reward if needed and apply the
// SARSA update to the evicted entry as (S1, A1) with the queue head as
// (S2, A2).
//
//chromevet:hot
func (a *Agent) record(q int, entry EQEntry) {
	old, evicted := a.eq.Insert(q, entry)
	if !evicted {
		return
	}
	if !old.HasReward {
		old.Reward = a.nrReward(old)
		old.HasReward = true
		a.stats.RewardsNR++
	}
	var nextQ float64
	if head := a.eq.Head(q); head != nil {
		nextQ = a.qt.Q(head.State, head.Action)
	}
	target := float64(old.Reward) + a.cfg.Gamma*nextQ
	a.qt.Update(old.State, old.Action, target, a.rng.Float64())
}

// pfIndex indexes the action histograms: 0 demand, 1 prefetch.
//
//chromevet:hot
func pfIndex(acc mem.Access) int {
	if acc.IsPrefetch() {
		return 1
	}
	return 0
}

// choose implements the ε-greedy action selection (Algorithm 1 lines
// 10-19).
//
//chromevet:hot
func (a *Agent) choose(s State, hit bool) Action {
	a.stats.Decisions++
	if a.cfg.Epsilon > 0 && a.rng.Float64() < a.cfg.Epsilon {
		a.stats.Explorations++
		if hit {
			return ActionEPV0 + Action(a.rng.IntN(3))
		}
		return Action(a.rng.IntN(NumActions))
	}
	act, _ := a.qt.BestAction(s, hit)
	return act
}

// step runs Algorithm 1 for one LLC access to set: accuracy rewards on a
// sampled set, state extraction (exactly once per access), ε-greedy action
// selection, the action histogram, and EQ recording with the SARSA update
// on overflow. Victim, OnHit and Step adapt the returned action to their
// callers' bookkeeping.
//
//chromevet:hot
func (a *Agent) step(set mem.SetIdx, acc mem.Access, hit bool) Action {
	q := a.sampler.Index(set)
	if q >= 0 {
		a.stats.SampledAccesses++
		a.assignAccuracyReward(q, acc, hit)
	}
	st := a.state(acc, hit)
	act := a.choose(st, hit)
	if hit {
		a.stats.HitActions[pfIndex(acc)][act]++
	} else {
		a.stats.MissActions[pfIndex(acc)][act]++
	}
	if q >= 0 {
		a.record(q, EQEntry{
			State:      st,
			Action:     act,
			TriggerHit: hit,
			AddrHash:   HashAddr(acc.Addr),
			Core:       uint8(acc.Core.Int()),
		})
	}
	return act
}

// Victim implements cache.Policy for LLC misses: the Algorithm-1 step
// chooses bypass or insert-with-EPV, then the victim is picked by EPV.
//
//chromevet:hot
func (a *Agent) Victim(set mem.SetIdx, blocks []cache.Block, acc mem.Access) (int, bool) {
	act := a.step(set, acc, false)
	if act == ActionBypass {
		a.stats.Bypasses++
		return 0, true
	}
	a.pendingEPV = act.EPV() & 3
	return a.victimByEPV(set, blocks), false
}

// victimByEPV returns the first invalid way or, when the set is full, the
// line with the highest eviction priority value; ties break toward the
// least recently touched line, then the lowest way. (No aging: evicting the
// max-EPV line directly preserves the learned priorities of the remaining
// lines; see DESIGN.md §4, item 2.) The answer is the minimum of one key
// per way, w when invalid and (3-EPV)<<59 | (LastTouch+1)<<5 | w when
// valid, taken with no data-dependent branch or early exit (DESIGN.md §7).
// cache.MaxWays keeps w in bits 0-4; the keys hold while LastTouch+1 <
// 2^54, about 52 simulated days at 4 GHz.
//
//chromevet:hot
func (a *Agent) victimByEPV(set mem.SetIdx, blocks []cache.Block) int {
	epv := a.epv[set]
	blocks = blocks[:len(epv)]
	best := ^uint64(0)
	for w := range epv {
		key := uint64(3-epv[w]&3)<<59 | (blocks[w].LastTouch.Uint64()+1)<<5 | uint64(w)
		if !blocks[w].Valid {
			key = uint64(w)
		}
		best = min(best, key)
	}
	return int(best % cache.MaxWays)
}

// OnHit implements cache.Policy for LLC hits: the Algorithm-1 step chooses
// the promotion EPV written to the hit line.
//
//chromevet:hot
func (a *Agent) OnHit(set mem.SetIdx, way int, _ []cache.Block, acc mem.Access) {
	a.epv[set][way] = a.step(set, acc, true).EPV() & 3
}

// OnFill implements cache.Policy: apply the EPV chosen by the preceding
// Victim call for this access.
//
//chromevet:hot
func (a *Agent) OnFill(set mem.SetIdx, way int, _ []cache.Block, _ mem.Access) {
	a.epv[set][way] = a.pendingEPV
}

// OnEvict implements cache.Policy: the OnFill that follows on the same way
// sets its EPV.
func (*Agent) OnEvict(mem.SetIdx, int, []cache.Block) {}
