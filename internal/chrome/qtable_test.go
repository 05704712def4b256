package chrome

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOptimisticInitialization(t *testing.T) {
	cfg := DefaultConfig()
	qt := NewQTable(cfg)
	want := 1.0 / (1.0 - cfg.Gamma)
	st := NewState(123, 456)
	for a := Action(0); a < NumActions; a++ {
		got := qt.Q(st, a)
		if math.Abs(got-want) > 0.2 {
			t.Fatalf("initial Q(%v) = %v, want about %v", a, got, want)
		}
	}
}

func TestUpdateMovesTowardTarget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.5
	qt := NewQTable(cfg)
	st := NewState(1, 2)
	before := qt.Q(st, ActionBypass)
	qt.Update(st, ActionBypass, before+10, 0.5) // target above estimate
	after := qt.Q(st, ActionBypass)
	if after <= before {
		t.Fatalf("Q did not increase: %v -> %v", before, after)
	}
	qt.Update(st, ActionBypass, after-10, 0.5) // target below estimate
	if final := qt.Q(st, ActionBypass); final >= after {
		t.Fatalf("Q did not decrease: %v -> %v", after, final)
	}
	if qt.Updates() != 2 {
		t.Fatalf("updates = %d, want 2", qt.Updates())
	}
}

func TestUpdateAffectsOnlyChosenAction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.5
	qt := NewQTable(cfg)
	st := NewState(7, 8)
	beforeOther := qt.Q(st, ActionEPV1)
	qt.Update(st, ActionBypass, 20, 0.5)
	if got := qt.Q(st, ActionEPV1); got != beforeOther {
		t.Fatalf("unrelated action's Q changed: %v -> %v", beforeOther, got)
	}
}

func TestFeatureGeneralization(t *testing.T) {
	// Updating a state must move other states that share a feature (same
	// PC, different PN) but not unrelated states.
	cfg := DefaultConfig()
	cfg.Alpha = 0.5
	qt := NewQTable(cfg)
	trained := NewState(42, 100)
	sharesPC := NewState(42, 999)
	unrelated := NewState(43, 998)
	beforeShared := qt.Q(sharesPC, ActionEPV0)
	beforeUnrelated := qt.Q(unrelated, ActionEPV0)
	for i := 0; i < 50; i++ {
		qt.Update(trained, ActionEPV0, 20, 0.5)
	}
	if got := qt.Q(sharesPC, ActionEPV0); got <= beforeShared {
		t.Fatalf("PC-sharing state did not generalize: %v -> %v", beforeShared, got)
	}
	if got := qt.Q(unrelated, ActionEPV0); math.Abs(got-beforeUnrelated) > 1e-9 {
		t.Fatalf("unrelated state changed: %v -> %v", beforeUnrelated, got)
	}
}

func TestComposeMaxVsSum(t *testing.T) {
	for _, compose := range []QCompose{ComposeMax, ComposeSum} {
		cfg := DefaultConfig()
		cfg.Compose = compose
		qt := NewQTable(cfg)
		st := NewState(1, 2)
		qPC := qt.featureQ(0, st, ActionBypass)
		qPN := qt.featureQ(1, st, ActionBypass)
		got := qt.Q(st, ActionBypass)
		var want float64
		if compose == ComposeMax {
			want = math.Max(qPC, qPN)
		} else {
			want = qPC + qPN
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("compose %v: Q = %v, want %v", compose, got, want)
		}
	}
}

func TestSingleFeatureConfigs(t *testing.T) {
	// A single-feature configuration produces 1-dimensional states: two
	// states sharing that value share Q; different values do not.
	for _, fs := range [][]FeatureKind{{FeatPCSignature}, {FeatPageNumber}} {
		cfg := DefaultConfig()
		cfg.StateFeatures = fs
		cfg.Alpha = 0.5
		qt := NewQTable(cfg)
		a := NewState(100)
		same := NewState(100)
		other := NewState(200)
		before := qt.Q(other, ActionEPV0)
		for i := 0; i < 30; i++ {
			qt.Update(a, ActionEPV0, 20, 0.5)
		}
		if qt.Q(same, ActionEPV0) != qt.Q(a, ActionEPV0) {
			t.Fatalf("%v: states sharing the feature must share Q", fs)
		}
		if qt.Q(other, ActionEPV0) != before {
			t.Fatalf("%v: unrelated feature value changed", fs)
		}
	}
}

func TestBestActionLegality(t *testing.T) {
	qt := NewQTable(DefaultConfig())
	f := func(pc, pn uint64) bool {
		st := NewState(pc, pn)
		aMiss, _ := qt.BestAction(st, false)
		aHit, _ := qt.BestAction(st, true)
		return aMiss < NumActions && aHit >= ActionEPV0 && aHit < NumActions
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBestActionTieBreaksToEPV0(t *testing.T) {
	qt := NewQTable(DefaultConfig())
	st := NewState(5, 6)
	if a, _ := qt.BestAction(st, false); a != ActionEPV0 {
		t.Fatalf("untrained miss state chose %v, want epv0 (LRU-like prior)", a)
	}
	if a, _ := qt.BestAction(st, true); a != ActionEPV0 {
		t.Fatalf("untrained hit state chose %v, want epv0", a)
	}
}

func TestBestActionPicksBypassWhenLearned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.5
	qt := NewQTable(cfg)
	st := NewState(9, 10)
	for i := 0; i < 100; i++ {
		qt.Update(st, ActionBypass, 10, 0.5)
		qt.Update(st, ActionEPV0, -10, 0.5)
	}
	// Per-feature TD targets converge each feature's estimate to the
	// target itself.
	if a, _ := qt.BestAction(st, false); a != ActionBypass {
		t.Fatalf("chose %v, want bypass after training", a)
	}
	// Hit states can never choose bypass.
	if a, _ := qt.BestAction(st, true); a == ActionBypass {
		t.Fatal("hit state chose bypass")
	}
}

func TestSaturation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 1.0
	qt := NewQTable(cfg)
	st := NewState(1, 1)
	for i := 0; i < 100000; i++ {
		qt.Update(st, ActionEPV2, 1000, 0.5)
	}
	got := qt.Q(st, ActionEPV2)
	limit := float64(cfg.SubTables) * math.MaxInt16 / qScale
	if got > limit {
		t.Fatalf("Q = %v beyond saturation limit %v", got, limit)
	}
}

func TestStochasticRoundingPreservesSmallSteps(t *testing.T) {
	// With alpha small enough that a step is < 1 fixed-point unit,
	// rnd below the fraction must still apply an increment.
	cfg := DefaultConfig()
	cfg.Alpha = 0.001
	qt := NewQTable(cfg)
	st := NewState(3, 4)
	before := qt.Q(st, ActionEPV0)
	qt.Update(st, ActionEPV0, before+1, 0.0) // rnd=0 -> round up any positive fraction
	if got := qt.Q(st, ActionEPV0); got <= before {
		t.Fatalf("small positive step lost to quantization: %v -> %v", before, got)
	}
}

func TestQuantize(t *testing.T) {
	cases := []struct {
		x, rnd float64
		want   int32
	}{
		{1.0, 0.5, 1},
		{1.4, 0.5, 1}, // frac 0.4 < rnd keeps floor
		{1.4, 0.3, 2}, // frac 0.4 > rnd rounds up
		{-0.5, 0.9, -1},
		{-0.5, 0.2, 0},
		{0, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantize(c.x, c.rnd); got != c.want {
			t.Errorf("quantize(%v, %v) = %d, want %d", c.x, c.rnd, got, c.want)
		}
	}
}

func TestSatAdd16(t *testing.T) {
	if got := satAdd16(math.MaxInt16, 10); got != math.MaxInt16 {
		t.Fatalf("positive saturation failed: %d", got)
	}
	if got := satAdd16(math.MinInt16, -10); got != math.MinInt16 {
		t.Fatalf("negative saturation failed: %d", got)
	}
	if got := satAdd16(5, -3); got != 2 {
		t.Fatalf("plain add failed: %d", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Alpha = -1 },
		func(c *Config) { c.Gamma = 1.0 },
		func(c *Config) { c.Epsilon = 2 },
		func(c *Config) { c.SubTables = 0 },
		func(c *Config) { c.SubTableBits = 30 },
		func(c *Config) { c.EQDepth = 1 },
		func(c *Config) { c.SampledSets = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid config did not panic", i)
				}
			}()
			NewQTable(cfg)
		}()
	}
}

func TestActionHelpers(t *testing.T) {
	if ActionBypass.EPV() != 0 || ActionEPV0.EPV() != 0 || ActionEPV1.EPV() != 1 || ActionEPV2.EPV() != 2 {
		t.Fatal("EPV mapping wrong")
	}
	names := map[Action]string{ActionBypass: "bypass", ActionEPV0: "epv0", ActionEPV1: "epv1", ActionEPV2: "epv2"}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
}
