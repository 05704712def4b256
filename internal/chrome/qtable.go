package chrome

import (
	"math"

	"chrome/internal/mem"
)

// Action is one of CHROME's cache-management actions. On a miss the agent
// chooses among {Bypass, InsertEPV0..2}; on a hit among {PromoteEPV0..2}.
// EPV0 is the lowest eviction priority (keep longest); EPV2 (EPV_H) the
// highest (evict first). Hit and miss states are disambiguated by the
// hit/miss bit folded into the PC signature, so the action columns are
// shared across triggers: column k (k>0) means "hold the block at EPV k-1".
type Action uint8

const (
	// ActionBypass skips caching an incoming block (miss trigger only).
	ActionBypass Action = iota
	// ActionEPV0 inserts/promotes the block at eviction priority 0.
	ActionEPV0
	// ActionEPV1 inserts/promotes the block at eviction priority 1.
	ActionEPV1
	// ActionEPV2 inserts/promotes the block at the highest priority (EPV_H).
	ActionEPV2
	// NumActions is the action-column count of the Q-table.
	NumActions = 4
)

// EPV returns the eviction-priority value the action assigns (0 for bypass).
func (a Action) EPV() uint8 {
	if a == ActionBypass {
		return 0
	}
	return uint8(a) - 1
}

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionBypass:
		return "bypass"
	case ActionEPV0:
		return "epv0"
	case ActionEPV1:
		return "epv1"
	case ActionEPV2:
		return "epv2"
	}
	return "?"
}

// MaxStateFeatures bounds the state-vector dimensionality (the paper uses
// 2; the Table I catalog study goes up to 4).
const MaxStateFeatures = 4

// State is CHROME's program-feature vector for one access (paper §IV-A).
// The default configuration uses 2 dimensions: the hashed PC signature
// (PC ⊕ hit/miss ⊕ is_prefetch ⊕ core) and the physical page number.
type State struct {
	f [MaxStateFeatures]uint64
	n uint8
}

// NewState builds a state vector from explicit feature values.
//
//chromevet:hot
func NewState(values ...uint64) State {
	if len(values) == 0 || len(values) > MaxStateFeatures {
		panic("chrome: state must have 1..MaxStateFeatures values")
	}
	var st State
	st.n = uint8(len(values))
	copy(st.f[:], values)
	return st
}

// Feature returns the i-th feature value.
func (s State) Feature(i int) uint64 { return s.f[i] }

// Len returns the state's dimensionality.
func (s State) Len() int { return int(s.n) }

// qScale converts between float Q-values and the 16-bit fixed-point
// partials stored in sub-table entries (Q10.5: 5 fractional bits).
const qScale = 32

// QTable stores the Q-values of feature-action pairs in hashed sub-tables
// (paper §V-C): per feature, SubTables sub-tables of 2^SubTableBits entries
// × NumActions 16-bit partial values. Q(f,A) is the sum of the partials;
// Q(S,A) combines the feature values with max (or sum, for the ablation).
type QTable struct {
	cfg Config
	// partials[feature][subTable] is a flat [entries*NumActions]int16.
	partials  [][][]int16
	mask      uint64
	n         int // state dimensionality
	subTables int
	compose   QCompose

	// updates counts SARSA applications (for the UPKSA metric).
	updates uint64
}

// NewQTable builds a Q-table with all values initialized optimistically to
// the highest possible Q-value 1/(1-γ), which drives early exploration
// (paper §V-B).
func NewQTable(cfg Config) *QTable {
	cfg.validate()
	qt := &QTable{
		cfg:       cfg,
		mask:      (1 << cfg.SubTableBits) - 1,
		n:         len(cfg.StateFeatures),
		subTables: cfg.SubTables,
		compose:   cfg.Compose,
	}
	entries := (1 << cfg.SubTableBits) * NumActions
	optimistic := 1.0 / (1.0 - cfg.Gamma)
	perPartial := int16(math.Round(optimistic * qScale / float64(cfg.SubTables)))
	qt.partials = make([][][]int16, qt.n)
	for f := 0; f < qt.n; f++ {
		qt.partials[f] = make([][]int16, cfg.SubTables)
		for t := 0; t < cfg.SubTables; t++ {
			tab := make([]int16, entries)
			for i := range tab {
				tab[i] = perPartial
			}
			qt.partials[f][t] = tab
		}
	}
	return qt
}

// index returns the sub-table slot for a feature value. Each sub-table
// XORs the feature with a distinct constant before hashing (paper §V-C).
//
//chromevet:hot
func (qt *QTable) index(sub int, feature uint64) uint64 {
	return mem.Mix64(feature^(0x9E3779B97F4A7C15*uint64(sub+1))) & qt.mask
}

// featureQ returns Q(f_i, a) for feature index fi of the state.
//
//chromevet:hot
func (qt *QTable) featureQ(fi int, s State, a Action) float64 {
	var sum int32
	for t := 0; t < qt.subTables; t++ {
		idx := qt.index(t, s.f[fi])*NumActions + uint64(a)
		sum += int32(qt.partials[fi][t][idx])
	}
	return float64(sum) / qScale
}

// Q returns the state-action value Q(S, A) (paper §V-C: the max across
// features of the per-feature Q-values).
//
//chromevet:hot
func (qt *QTable) Q(s State, a Action) float64 {
	switch qt.compose {
	case ComposeSum:
		var total float64
		for fi := 0; fi < qt.n; fi++ {
			total += qt.featureQ(fi, s, a)
		}
		return total
	default:
		best := math.Inf(-1)
		for fi := 0; fi < qt.n; fi++ {
			if q := qt.featureQ(fi, s, a); q > best {
				best = q
			}
		}
		return best
	}
}

// missActionOrder scans insertion actions before bypass so that exact ties
// (untrained, optimistically initialized states) default to the LRU-like
// EPV0 insertion rather than to bypassing.
var missActionOrder = [NumActions]Action{ActionEPV0, ActionEPV1, ActionEPV2, ActionBypass}

// gatherRows sums, per (feature, action), the partials of every sub-table.
// Each slot is hashed once and its four adjacent action partials are read
// together, instead of re-hashing the slot once per action the way a
// featureQ-per-action scan would: int32 addition is exact, so the sums —
// and the Q-values derived from them — are bit-identical to the naive
// per-action loops.
//
//chromevet:hot
func (qt *QTable) gatherRows(s State, sums *[MaxStateFeatures][NumActions]int32) {
	for fi := 0; fi < qt.n; fi++ {
		f := s.f[fi]
		tabs := qt.partials[fi]
		for t := 0; t < qt.subTables; t++ {
			base := qt.index(t, f) * NumActions
			row := tabs[t][base : base+NumActions : base+NumActions]
			sums[fi][0] += int32(row[0])
			sums[fi][1] += int32(row[1])
			sums[fi][2] += int32(row[2])
			sums[fi][3] += int32(row[3])
		}
	}
}

// composeQ combines one action's per-feature sums into Q(S, A), in the same
// feature order and with the same float operations as Q over featureQ.
//
//chromevet:hot
func (qt *QTable) composeQ(sums *[MaxStateFeatures][NumActions]int32, a Action) float64 {
	switch qt.compose {
	case ComposeSum:
		var total float64
		for fi := 0; fi < qt.n; fi++ {
			total += float64(sums[fi][a]) / qScale
		}
		return total
	default:
		best := math.Inf(-1)
		for fi := 0; fi < qt.n; fi++ {
			if q := float64(sums[fi][a]) / qScale; q > best {
				best = q
			}
		}
		return best
	}
}

// BestAction returns the argmax action for the state over the legal action
// set (miss: all four; hit: the three EPV actions) and its Q-value.
//
//chromevet:hot
func (qt *QTable) BestAction(s State, hit bool) (Action, float64) {
	var sums [MaxStateFeatures][NumActions]int32
	qt.gatherRows(s, &sums)
	if hit {
		best, bestQ := ActionEPV0, qt.composeQ(&sums, ActionEPV0)
		for a := ActionEPV1; a < NumActions; a++ {
			if q := qt.composeQ(&sums, a); q > bestQ {
				best, bestQ = a, q
			}
		}
		return best, bestQ
	}
	best, bestQ := missActionOrder[0], qt.composeQ(&sums, missActionOrder[0])
	for _, a := range missActionOrder[1:] {
		if q := qt.composeQ(&sums, a); q > bestQ {
			best, bestQ = a, q
		}
	}
	return best, bestQ
}

// Update applies a SARSA step toward target = R + γ·Q(S', A'). Each
// enabled feature's sub-tables move by α·(target − Q_f(S, A))/SubTables,
// i.e. every feature learns against its *own* current estimate. (Using the
// max-composed Q(S, A) as the baseline for both features would drive the
// non-max feature's estimate away without bound — the max() composition
// only ever reads the larger one back; see DESIGN.md §4.1.) Stochastic
// rounding (driven by rnd, a uniform value in [0,1)) preserves learning for
// small α despite the 16-bit quantization.
//
//chromevet:hot
func (qt *QTable) Update(s State, a Action, target, rnd float64) {
	qt.updates++
	// The read pass (featureQ's sum) and the write pass hit the same
	// sub-table slots; hashing each slot once and remembering the index
	// halves the Mix64 work without changing a single table value.
	nt := qt.cfg.SubTables
	var idxBuf [16]uint64
	hoist := nt <= len(idxBuf)
	for fi := 0; fi < qt.n; fi++ {
		var sum int32
		if hoist {
			for t := 0; t < nt; t++ {
				idx := qt.index(t, s.f[fi])*NumActions + uint64(a)
				idxBuf[t] = idx
				sum += int32(qt.partials[fi][t][idx])
			}
		} else {
			for t := 0; t < nt; t++ {
				sum += int32(qt.partials[fi][t][qt.index(t, s.f[fi])*NumActions+uint64(a)])
			}
		}
		delta := target - float64(sum)/qScale
		step := qt.cfg.Alpha * delta * qScale / float64(nt)
		inc := int16(quantize(step, rnd))
		if inc == 0 {
			continue
		}
		for t := 0; t < nt; t++ {
			idx := idxBuf[t]
			if !hoist {
				idx = qt.index(t, s.f[fi])*NumActions + uint64(a)
			}
			qt.partials[fi][t][idx] = satAdd16(qt.partials[fi][t][idx], inc)
		}
	}
}

// Updates returns the number of SARSA updates applied so far.
func (qt *QTable) Updates() uint64 { return qt.updates }

// quantize rounds x stochastically using rnd ∈ [0,1): the result is
// floor(x) + 1 with probability frac(x).
//
//chromevet:hot
func quantize(x, rnd float64) int32 {
	f := math.Floor(x)
	if rnd < x-f {
		f++
	}
	if f > math.MaxInt16 {
		return math.MaxInt16
	}
	if f < math.MinInt16 {
		return math.MinInt16
	}
	return int32(f)
}

// satAdd16 adds with int16 saturation.
//
//chromevet:hot
func satAdd16(a, b int16) int16 {
	s := int32(a) + int32(b)
	if s > math.MaxInt16 {
		return math.MaxInt16
	}
	if s < math.MinInt16 {
		return math.MinInt16
	}
	return int16(s)
}
