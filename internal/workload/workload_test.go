package workload

import (
	"testing"

	"chrome/internal/mem"
	"chrome/internal/trace"
)

func TestTableVIRoster(t *testing.T) {
	// The paper's Table VI: 14 SPEC06, 13 SPEC17, and 5 GAP kernels x 3
	// datasets = 15 GAP profiles.
	if got := len(BySuite(SPEC06)); got != 14 {
		t.Errorf("SPEC06 profiles = %d, want 14", got)
	}
	if got := len(BySuite(SPEC17)); got != 13 {
		t.Errorf("SPEC17 profiles = %d, want 13", got)
	}
	if got := len(BySuite(GAP)); got != 15 {
		t.Errorf("GAP profiles = %d, want 15", got)
	}
	if got := len(All()); got != 42 {
		t.Errorf("total profiles = %d, want 42", got)
	}
	if got := len(SPEC()); got != 27 {
		t.Errorf("SPEC pool = %d, want 27", got)
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("mcf")
	if err != nil || p.Name != "mcf" || p.Suite != SPEC06 {
		t.Fatalf("ByName(mcf) = %+v, %v", p, err)
	}
	if _, err := ByName("not-a-workload"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
	if len(Names()) != len(All()) {
		t.Fatal("Names() length mismatch")
	}
}

func TestProfilesAreDeterministic(t *testing.T) {
	for _, p := range All() {
		a, b := p.New(0), p.New(0)
		for i := 0; i < 500; i++ {
			if a.Next() != b.Next() {
				t.Errorf("%s: two instances diverged", p.Name)
				break
			}
		}
	}
}

func TestCoresGetDisjointAddressSpaces(t *testing.T) {
	p, _ := ByName("gcc")
	g0, g1 := p.New(0), p.New(1)
	for i := 0; i < 1000; i++ {
		a0, a1 := g0.Next().Addr, g1.Next().Addr
		if a0/coreSpacing != 0 {
			t.Fatalf("core 0 address %#x outside its region", uint64(a0))
		}
		if a1/coreSpacing != 1 {
			t.Fatalf("core 1 address %#x outside its region", uint64(a1))
		}
	}
}

func TestHomogeneousMix(t *testing.T) {
	p, _ := ByName("milc")
	gens := HomogeneousMix(p, 4, 5_000)
	if len(gens) != 4 {
		t.Fatalf("mix size %d, want 4", len(gens))
	}
	seen := map[mem.Addr]bool{}
	for _, g := range gens {
		addr := g.Next().Addr
		if seen[addr] {
			t.Fatal("two cores produced the same first address; rebase failed")
		}
		seen[addr] = true
	}
}

func TestHeterogeneousMixesDeterministic(t *testing.T) {
	a := HeterogeneousMixes(4, 10, 1)
	b := HeterogeneousMixes(4, 10, 1)
	if len(a) != 10 {
		t.Fatalf("mix count %d, want 10", len(a))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("mix names differ across identical calls")
		}
		for c := range a[i].Profiles {
			if a[i].Profiles[c].Name != b[i].Profiles[c].Name {
				t.Fatal("mix contents differ across identical calls")
			}
		}
	}
	// A different seed must give a different selection somewhere.
	c := HeterogeneousMixes(4, 10, 2)
	same := true
	for i := range a {
		for j := range a[i].Profiles {
			if a[i].Profiles[j].Name != c[i].Profiles[j].Name {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical mixes")
	}
}

func TestMixGenerators(t *testing.T) {
	m := HeterogeneousMixes(8, 1, 7)[0]
	gens := m.Generators(5_000)
	if len(gens) != 8 {
		t.Fatalf("generators = %d, want 8", len(gens))
	}
	for i, g := range gens {
		addr := g.Next().Addr
		if int(addr/coreSpacing) != i {
			t.Fatalf("core %d generator produced address %#x outside its space", i, uint64(addr))
		}
	}
}

func TestMixesDrawFromSPECOnly(t *testing.T) {
	for _, m := range HeterogeneousMixes(16, 5, 3) {
		for _, p := range m.Profiles {
			if p.Suite == GAP {
				t.Fatalf("mix %s contains GAP profile %s; GAP is held out (§VII-D)", m.Name, p.Name)
			}
		}
	}
}

// TestProfilesEmitPlausibleTraffic sanity-checks every profile's raw trace:
// valid gaps, some address diversity, and write behaviour within bounds.
func TestProfilesEmitPlausibleTraffic(t *testing.T) {
	for _, p := range All() {
		g := p.New(0)
		blocks := map[uint64]bool{}
		writes := 0
		const n = 20000
		for i := 0; i < n; i++ {
			rec := g.Next()
			blocks[rec.Addr.Block().Uint64()] = true
			if rec.Write {
				writes++
			}
		}
		if len(blocks) < 32 {
			t.Errorf("%s: only %d distinct blocks in %d records", p.Name, len(blocks), n)
		}
		if writes == n {
			t.Errorf("%s: all accesses are writes", p.Name)
		}
	}
}

// verify the trace.Generator contract for a sample of profiles after Reset.
func TestProfileReset(t *testing.T) {
	for _, name := range []string{"mcf", "wrf", "pr-tw", "libquantum"} {
		p, _ := ByName(name)
		g := p.New(2)
		var first []trace.Record
		for i := 0; i < 300; i++ {
			first = append(first, g.Next())
		}
		g.Reset()
		for i := 0; i < 300; i++ {
			if g.Next() != first[i] {
				t.Errorf("%s: Reset did not rewind", name)
				break
			}
		}
	}
}

func TestRegistryFreezesOnFirstRead(t *testing.T) {
	// Any lookup latches the registry; a late register must panic loudly
	// rather than mutate state the parallel runner reads without locks.
	All()
	defer func() {
		if recover() == nil {
			t.Fatal("register after freeze did not panic")
		}
	}()
	register("zzz-frozen-test", SPEC06, func(rg, seed uint64) trace.Generator {
		return trace.NewStream(trace.StreamConfig{Name: "zzz", Region: rg, Size: 1 << 20, Seed: seed})
	})
}
