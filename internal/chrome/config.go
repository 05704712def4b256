// Package chrome implements the paper's contribution: the CHROME
// concurrency-aware holistic cache management agent. CHROME treats LLC
// management as an online reinforcement-learning problem: for every LLC
// access it observes a state vector of program features (hashed PC
// signature and physical page number), selects a bypass / insertion /
// promotion action by Q-value, and learns via SARSA from rewards that
// combine per-action accuracy with concurrency-aware system-level feedback
// (C-AMAT LLC-obstruction status).
package chrome

// QCompose selects how per-feature Q-values combine into the state-action
// Q-value. The paper specifies max; sum is provided for the ablation bench.
type QCompose uint8

const (
	// ComposeMax takes the maximum feature-action Q-value (paper §V-C).
	ComposeMax QCompose = iota
	// ComposeSum sums the feature-action Q-values (Pythia-style ablation).
	ComposeSum
)

// Rewards holds the reward values of Table II. AC rewards apply when the
// action's block was re-requested and present (accurate caching); IN when
// re-requested but absent (inaccurate); the NR variants apply when the
// address was never re-requested within the EQ's temporal window, split by
// whether the issuing core was LLC-obstructed (OB) or not (NOB).
type Rewards struct {
	ACDemand   int8 // R_AC^D
	ACPrefetch int8 // R_AC^P
	INDemand   int8 // R_IN^D
	INPrefetch int8 // R_IN^P
	ACNROb     int8 // R_AC-NR^OB
	ACNRNob    int8 // R_AC-NR^NOB
	INNROb     int8 // R_IN-NR^OB
	INNRNob    int8 // R_IN-NR^NOB
}

// DefaultRewards returns Table II's reward values.
func DefaultRewards() Rewards {
	return Rewards{
		ACDemand:   20,
		ACPrefetch: 5,
		INDemand:   -20,
		INPrefetch: -5,
		ACNROb:     28,
		ACNRNob:    10,
		INNROb:     -22,
		INNRNob:    -10,
	}
}

// Config parameterizes a CHROME agent. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Alpha is the SARSA learning rate (Table II: 0.0498).
	Alpha float64
	// Gamma is the discount factor (Table II: 0.3679).
	Gamma float64
	// Epsilon is the ε-greedy exploration rate (Table II: 0.001).
	Epsilon float64
	// Rewards are the reward values (Table II).
	Rewards Rewards
	// SubTables is the number of hashed sub-tables per feature (4).
	SubTables int
	// SubTableBits is log2 of entries per sub-table (11 → 2048).
	SubTableBits int
	// EQDepth is the capacity of each per-sampled-set FIFO (28).
	EQDepth int
	// SampledSets is the number of LLC sets observed for training (64).
	SampledSets int
	// StateFeatures selects the Table I features that form the state
	// vector, 1..MaxStateFeatures entries (the paper's PC+PN default, the
	// Fig. 15 ablation and the extended feature-selection study).
	StateFeatures []FeatureKind
	// Compose selects the per-feature Q combination rule.
	Compose QCompose
	// ConcurrencyAware enables the C-AMAT OB/NOB reward differentiation;
	// disabling it yields the paper's N-CHROME ablation (§VII-C).
	ConcurrencyAware bool
	// Seed drives the deterministic exploration RNG.
	Seed uint64
}

// DefaultConfig returns the paper's tuned configuration (Tables II & III).
func DefaultConfig() Config {
	return Config{
		Alpha:            0.0498,
		Gamma:            0.3679,
		Epsilon:          0.001,
		Rewards:          DefaultRewards(),
		SubTables:        4,
		SubTableBits:     11,
		EQDepth:          28,
		SampledSets:      64,
		StateFeatures:    []FeatureKind{FeatPCSignature, FeatPageNumber},
		Compose:          ComposeMax,
		ConcurrencyAware: true,
		Seed:             1,
	}
}

// NCHROMEConfig returns the N-CHROME ablation configuration: identical to
// CHROME but blind to LLC obstruction, with the NR rewards fixed at the
// non-obstruction values (paper §VII-C).
func NCHROMEConfig() Config {
	cfg := DefaultConfig()
	cfg.ConcurrencyAware = false
	return cfg
}

// validate panics on nonsensical configuration values.
func (c Config) validate() {
	switch {
	case c.Alpha < 0 || c.Alpha > 1:
		panic("chrome: Alpha must be in [0,1]")
	case c.Gamma < 0 || c.Gamma >= 1:
		panic("chrome: Gamma must be in [0,1)")
	case c.Epsilon < 0 || c.Epsilon > 1:
		panic("chrome: Epsilon must be in [0,1]")
	case c.SubTables <= 0:
		panic("chrome: SubTables must be positive")
	case c.SubTableBits <= 0 || c.SubTableBits > 24:
		panic("chrome: SubTableBits out of range")
	case c.EQDepth <= 1:
		panic("chrome: EQDepth must exceed 1")
	case c.SampledSets <= 0:
		panic("chrome: SampledSets must be positive")
	case len(c.StateFeatures) == 0:
		panic("chrome: StateFeatures must select at least one feature")
	case len(c.StateFeatures) > MaxStateFeatures:
		panic("chrome: too many state features")
	}
}
