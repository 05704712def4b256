package chrome

import "testing"

// TestTableIIConstants locks the default configuration and the reward
// constants to the paper's Table II values exactly.
func TestTableIIConstants(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Alpha != 0.0498 || cfg.Gamma != 0.3679 || cfg.Epsilon != 0.001 {
		t.Fatalf("hyper-parameters %v/%v/%v do not match Table II (0.0498/0.3679/0.001)",
			cfg.Alpha, cfg.Gamma, cfg.Epsilon)
	}
	got := [...]int8{
		rewardACDemand, rewardACPrefetch, rewardINDemand, rewardINPrefetch,
		rewardACNROb, rewardACNRNob, rewardINNROb, rewardINNRNob,
	}
	want := [...]int8{20, 5, -20, -5, 28, 10, -22, -10}
	if got != want {
		t.Fatalf("rewards AC^D, AC^P, IN^D, IN^P, AC-NR^OB, AC-NR^NOB, IN-NR^OB, IN-NR^NOB = %v, Table II has %v", got, want)
	}
}

// TestTableIIIStructure locks the hardware-structure dimensions to the
// paper (Table III: 4 sub-tables, 2048 entries, EQ 64x28).
func TestTableIIIStructure(t *testing.T) {
	if SubTables != 4 || SubTableBits != 11 {
		t.Fatalf("Q-table dimensions %d sub-tables x 2^%d do not match Table III",
			SubTables, SubTableBits)
	}
	cfg := DefaultConfig()
	if cfg.EQDepth != 28 || cfg.SampledSets != 64 {
		t.Fatalf("EQ %dx%d does not match Table III (64x28)", cfg.SampledSets, cfg.EQDepth)
	}
}

func TestFeatureKindsResolution(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.StateFeatures; len(got) != 2 || got[0] != FeatPCSignature || got[1] != FeatPageNumber {
		t.Fatalf("default features = %v, want [PC, PN]", got)
	}
	cfg.StateFeatures = []FeatureKind{FeatDelta}
	if got := NewQTable(cfg).n; got != 1 {
		t.Fatalf("explicit features not honored: Q-table dimensionality %d, want 1", got)
	}
	cfg.StateFeatures = nil
	defer func() {
		if recover() == nil {
			t.Fatal("an empty feature selection should be rejected")
		}
	}()
	cfg.validate()
}
