package chrome

import (
	"math"
	"strings"
	"testing"
)

// TestOverheadTableIII checks the Table III storage accounting exactly.
func TestOverheadTableIII(t *testing.T) {
	ov := ComputeOverhead(DefaultConfig(), 12<<20)
	if got := ov.QTableKB(); got != 32 {
		t.Errorf("Q-Table = %v KB, want 32 (2 features x 4 sub-tables x 2048 x 16b)", got)
	}
	if got := ov.EQKB(); math.Abs(got-12.7) > 0.05 {
		t.Errorf("EQ = %v KB, want 12.7 (64 x 28 x 58b)", got)
	}
	if got := ov.MetadataKB(); got != 48 {
		t.Errorf("Metadata = %v KB, want 48 (2b x 196608 blocks)", got)
	}
	if got := ov.TotalKB(); math.Abs(got-92.7) > 0.1 {
		t.Errorf("Total = %v KB, want 92.7", got)
	}
	if s := ov.String(); !strings.Contains(s, "92.7KB") {
		t.Errorf("String() = %q, want it to mention the 92.7KB total", s)
	}
}

// TestOverheadTableIV checks that CHROME has the smallest overhead among
// the compared schemes (Table IV).
func TestOverheadTableIV(t *testing.T) {
	kb := SchemeOverheadKB()
	chrome := kb["CHROME"]
	for name, v := range kb {
		if name == "CHROME" {
			continue
		}
		if chrome >= v {
			t.Errorf("CHROME (%.1fKB) not below %s (%.1fKB)", chrome, name, v)
		}
	}
}

func TestOverheadScalesWithFeatures(t *testing.T) {
	full := ComputeOverhead(DefaultConfig(), 12<<20)
	cfg := DefaultConfig()
	cfg.StateFeatures = []FeatureKind{FeatPCSignature}
	half := ComputeOverhead(cfg, 12<<20)
	if half.QTableBits*2 != full.QTableBits {
		t.Fatalf("single-feature Q-table should be half: %d vs %d", half.QTableBits, full.QTableBits)
	}
}

func TestOverheadConstantAcrossLLCForSampling(t *testing.T) {
	// Q-Table and EQ costs must not grow with LLC capacity (paper §V-G);
	// only the per-line EPV metadata scales.
	small := ComputeOverhead(DefaultConfig(), 12<<20)
	big := ComputeOverhead(DefaultConfig(), 48<<20)
	if small.QTableBits != big.QTableBits || small.EQBits != big.EQBits {
		t.Fatal("sampling structures must not scale with LLC capacity")
	}
	if big.MetadataBits != 4*small.MetadataBits {
		t.Fatal("EPV metadata must scale linearly with capacity")
	}
}
