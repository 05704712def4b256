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

// The Q-table's fixed shape (paper §V-C, Table III): per state feature,
// SubTables hashed sub-tables of 2^SubTableBits slots, each slot holding
// NumActions 16-bit partials.
const (
	// SubTables is the number of hashed sub-tables per feature.
	SubTables = 4
	// SubTableBits is log2 of the slots per sub-table (2,048).
	SubTableBits = 11
	// subTableLen is the number of partials in one sub-table.
	subTableLen = NumActions << SubTableBits
)

// QTable stores the Q-values of feature-action pairs in hashed sub-tables
// (paper §V-C). Q(f,A) is the sum of feature f's SubTables partials for A;
// Q(S,A) is the max over the state's features of Q(f,A).
type QTable struct {
	cfg Config
	// partials is indexed by (feature, sub-table, slot, action), the order
	// a CHQT checkpoint stores them in.
	partials []int16
	n        int // state dimensionality

	// updates counts this run's SARSA applications (for the UPKSA metric).
	updates uint64
}

// NewQTable builds a Q-table with all values initialized optimistically to
// the highest possible Q-value 1/(1-γ), which drives early exploration
// (paper §V-B).
func NewQTable(cfg Config) *QTable {
	cfg.validate()
	n := len(cfg.StateFeatures)
	optimistic := 1.0 / (1.0 - cfg.Gamma)
	perPartial := int16(math.Round(optimistic * qScale / SubTables))
	partials := make([]int16, n*SubTables*subTableLen)
	for i := range partials {
		partials[i] = perPartial
	}
	return &QTable{cfg: cfg, partials: partials, n: n}
}

// row returns the offset in partials of the NumActions partials that
// feature fi's value selects in sub-table t. Each sub-table XORs the
// feature with a distinct constant before hashing (paper §V-C).
//
//chromevet:hot
func row(fi, t int, feature uint64) int {
	slot := mem.Mix64(feature^(0x9E3779B97F4A7C15*uint64(t+1))) & (1<<SubTableBits - 1)
	return (fi*SubTables+t)*subTableLen + int(slot)*NumActions
}

// actionQ returns Q(S, A) for every action in fixed point: per action, the
// max over the state's features of the feature's summed partials. Each
// slot is hashed once and its four adjacent action partials are read
// together. The sums are scalars, not an array, so that they stay in
// registers.
//
//chromevet:hot
func (qt *QTable) actionQ(s State) [NumActions]int32 {
	q := [NumActions]int32{math.MinInt32, math.MinInt32, math.MinInt32, math.MinInt32}
	p := qt.partials
	for fi, f := range s.f[:qt.n] {
		var s0, s1, s2, s3 int32
		for t := 0; t < SubTables; t++ {
			i := row(fi, t, f)
			r := p[i : i+NumActions : i+NumActions]
			s0 += int32(r[0])
			s1 += int32(r[1])
			s2 += int32(r[2])
			s3 += int32(r[3])
		}
		q = [NumActions]int32{max(q[0], s0), max(q[1], s1), max(q[2], s2), max(q[3], s3)}
	}
	return q
}

// Q returns the state-action value Q(S, A) (paper §V-C: the max across
// features of the per-feature Q-values).
//
//chromevet:hot
func (qt *QTable) Q(s State, a Action) float64 {
	return float64(qt.actionQ(s)[a]) / qScale
}

// BestAction returns the argmax action for the state over the legal action
// set (miss: all four; hit: the three EPV actions) and its Q-value. The
// scan starts at EPV0 and moves only on a strictly greater Q, with bypass
// last, so exact ties (untrained, optimistically initialized states)
// default to the LRU-like EPV0 insertion rather than to bypassing. It
// compares the fixed-point sums: x/qScale is exact and increasing for
// every int32 x, so the argmax and its value are those of the float
// Q-values.
//
//chromevet:hot
func (qt *QTable) BestAction(s State, hit bool) (Action, float64) {
	q := qt.actionQ(s)
	best := ActionEPV0
	if q[ActionEPV1] > q[best] {
		best = ActionEPV1
	}
	if q[ActionEPV2] > q[best] {
		best = ActionEPV2
	}
	if !hit && q[ActionBypass] > q[best] {
		best = ActionBypass
	}
	return best, float64(q[best]) / qScale
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
	// The read pass and the write pass hit the same sub-table slots; hashing
	// each slot once and remembering the index halves the Mix64 work.
	var idxBuf [SubTables]int
	for fi := 0; fi < qt.n; fi++ {
		var sum int32
		for t := range idxBuf {
			idx := row(fi, t, s.f[fi]) + int(a)
			idxBuf[t] = idx
			sum += int32(qt.partials[idx])
		}
		delta := target - float64(sum)/qScale
		step := qt.cfg.Alpha * delta * qScale / SubTables
		inc := int16(quantize(step, rnd))
		if inc == 0 {
			continue
		}
		for _, idx := range idxBuf {
			qt.partials[idx] = satAdd16(qt.partials[idx], inc)
		}
	}
}

// Updates returns the number of SARSA updates this table has applied; a
// loaded checkpoint does not add the saving run's.
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
