// Package chrome implements the paper's contribution: the CHROME
// concurrency-aware holistic cache management agent. CHROME treats LLC
// management as an online reinforcement-learning problem: for every LLC
// access it observes a state vector of program features (hashed PC
// signature and physical page number), selects a bypass / insertion /
// promotion action by Q-value, and learns via SARSA from rewards that
// combine per-action accuracy with concurrency-aware system-level feedback
// (C-AMAT LLC-obstruction status).
package chrome

// Table II's rewards. AC rewards apply when the action's block was
// re-requested and present (accurate caching); IN when re-requested but
// absent (inaccurate); the NR variants apply when the address was never
// re-requested within the EQ's temporal window, split by whether the
// issuing core was LLC-obstructed (OB) or not (NOB).
const (
	rewardACDemand   int8 = 20  // R_AC^D
	rewardACPrefetch int8 = 5   // R_AC^P
	rewardINDemand   int8 = -20 // R_IN^D
	rewardINPrefetch int8 = -5  // R_IN^P
	rewardACNROb     int8 = 28  // R_AC-NR^OB
	rewardACNRNob    int8 = 10  // R_AC-NR^NOB
	rewardINNROb     int8 = -22 // R_IN-NR^OB
	rewardINNRNob    int8 = -10 // R_IN-NR^NOB
)

// Config parameterizes a CHROME agent. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Alpha is the SARSA learning rate (Table II: 0.0498).
	Alpha float64
	// Gamma is the discount factor (Table II: 0.3679).
	Gamma float64
	// Epsilon is the ε-greedy exploration rate (Table II: 0.001).
	Epsilon float64
	// EQDepth is the capacity of each per-sampled-set FIFO (28).
	EQDepth int
	// SampledSets is the number of LLC sets observed for training (64).
	SampledSets int
	// StateFeatures selects the Table I features that form the state
	// vector, 1..MaxStateFeatures entries (the paper's PC+PN default, the
	// Fig. 15 ablation and the extended feature-selection study).
	StateFeatures []FeatureKind
	// ConcurrencyAware enables the C-AMAT OB/NOB reward differentiation;
	// disabling it yields the paper's N-CHROME ablation (§VII-C).
	ConcurrencyAware bool
	// Seed drives the deterministic exploration RNG.
	Seed uint64
}

// DefaultConfig returns the paper's tuned configuration (Tables II & III;
// the rewards and the Q-table's Table III shape are fixed, see
// rewardACDemand and SubTables).
func DefaultConfig() Config {
	return Config{
		Alpha:            0.0498,
		Gamma:            0.3679,
		Epsilon:          0.001,
		EQDepth:          28,
		SampledSets:      64,
		StateFeatures:    []FeatureKind{FeatPCSignature, FeatPageNumber},
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
