package experiments

import (
	"reflect"
	"testing"

	"chrome/internal/workload"
)

// TestRunMixReplayIdentical checks the core soundness claim at the result
// level: a cell simulated over shared frozen recordings produces exactly
// the result of one simulated over live generators, for a homogeneous mix
// and a heterogeneous one.
func TestRunMixReplayIdentical(t *testing.T) {
	sc := tinyScale()

	p, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	a := runMix(workload.HomogeneousMix(p, 2), 2, CHROMEScheme(ChromeConfig()), PFDefault(), sc)
	b := runMix(sc.homoGens(p, 2), 2, CHROMEScheme(ChromeConfig()), PFDefault(), sc)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("homogeneous cell diverged with replay:\nlive   %+v\nreplay %+v", a, b)
	}

	m := workload.HeterogeneousMixes(4, 1, sc.Seed)[0]
	a = runMix(m.Generators(), 4, LRUScheme(), PFDefault(), sc)
	b = runMix(sc.mixGens(m), 4, LRUScheme(), PFDefault(), sc)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("heterogeneous cell diverged with replay:\nlive   %+v\nreplay %+v", a, b)
	}
}
