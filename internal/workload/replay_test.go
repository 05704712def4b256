package workload

import (
	"sync"
	"testing"

	"chrome/internal/trace"
)

// quickBudget mirrors experiments.QuickScale's warmup+measure window
// (hardcoded here: importing experiments would cycle).
const quickBudget = 30_000 + 120_000

// TestRecordedMatchesLiveAllProfiles is the equivalence satellite: for every
// registered profile, at the profile's own seed and a perturbed one, the
// recorded stream reproduces a fresh live generator record-for-record over
// the full QuickScale budget. A generator that secretly depended on call
// context (wall time, global rand, shared state) would diverge here.
func TestRecordedMatchesLiveAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("full-budget equivalence sweep")
	}
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			region := profileRegion(p.Name)
			for _, seed := range []uint64{p.seed(), p.seed() + 1} {
				rec := trace.RecordStream(p.build(region, seed), quickBudget)
				if rec.Instructions() < quickBudget {
					t.Fatalf("seed %#x: recording covers %d instructions, want >= %d", seed, rec.Instructions(), quickBudget)
				}
				live := p.build(region, seed)
				rep := rec.Replayer(0)
				for i := 0; i < rec.Len(); i++ {
					if got, want := rep.Next(), live.Next(); got != want {
						t.Fatalf("seed %#x record %d: replay %+v, live %+v", seed, i, got, want)
					}
				}
			}
		})
	}
}

// TestRecordedCacheSharesOneRecording makes the first Recorded call for its
// (profile, budget) from 8 goroutines at once, at a budget no other test
// records: all of them must get one recording, and under -race a cache
// lookup outside the per-profile lock is a reported race. The recording's
// wall time must show up in GenerationTime.
func TestRecordedCacheSharesOneRecording(t *testing.T) {
	p, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 11_000
	got := make([]*trace.Recording, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Recorded(p, budget)
		}()
	}
	wg.Wait()
	a := got[0]
	for i, r := range got {
		if r != a {
			t.Fatalf("caller %d got a different recording: concurrent first use must record once", i)
		}
	}
	if b := Recorded(p, budget); b != a {
		t.Fatal("same (profile, budget) must return the identical recording")
	}
	if c := Recorded(p, 20_000); c == a {
		t.Fatal("distinct budgets must not share a recording")
	}
	if GenerationTime() <= 0 {
		t.Fatal("generation time must be accounted")
	}
	gens := HomogeneousMix(p, 4, budget)
	if len(gens) != 4 {
		t.Fatalf("got %d generators, want 4", len(gens))
	}
}

func TestReplayMixUsesPerCoreOffsets(t *testing.T) {
	p, err := ByName("lbm")
	if err != nil {
		t.Fatal(err)
	}
	gens := HomogeneousMix(p, 2, 5_000)
	r0, r1 := gens[0].Next(), gens[1].Next()
	if r1.Addr != r0.Addr+coreSpacing {
		t.Fatalf("core 1 address %#x, want core 0 %#x + spacing", r1.Addr, r0.Addr)
	}
}

// TestNewReplayMatchesNew holds HomogeneousMix, which replaced
// Profile.NewReplay, to the live generator recordings are made from: core
// i of HomogeneousMix(p, n, budget) replays p.New(i) record for record over
// the recorded window, its per-core address offset included.
func TestNewReplayMatchesNew(t *testing.T) {
	p, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 20_000
	rec := Recorded(p, budget)
	for core, rep := range HomogeneousMix(p, 4, budget) {
		live := p.New(core)
		for i := 0; i < rec.Len(); i++ {
			if got, want := rep.Next(), live.Next(); got != want {
				t.Fatalf("core %d record %d: replay %+v, live %+v", core, i, got, want)
			}
		}
	}
}

// TestMixReplayGeneratorsMatchLive holds a heterogeneous mix to the live
// generators: core i of Mix.Generators(budget) replays
// m.Profiles[i].New(i) record for record over the recorded window, its
// per-core address offset included.
func TestMixReplayGeneratorsMatchLive(t *testing.T) {
	const budget = 10_000
	mix := HeterogeneousMixes(4, 1, 42)[0]
	for core, rep := range mix.Generators(budget) {
		p := mix.Profiles[core]
		live := p.New(core)
		for i := 0; i < Recorded(p, budget).Len(); i++ {
			if got, want := rep.Next(), live.Next(); got != want {
				t.Fatalf("%s core %d record %d: replay %+v, live %+v", mix.Name, core, i, got, want)
			}
		}
	}
}

// TestRecordedUnknownProfilePanics is the freeze-latch white-box test: once
// the cache map is built (alongside the registry freeze), recording an
// unregistered profile is a loud panic, mirroring a late register.
func TestRecordedUnknownProfilePanics(t *testing.T) {
	ensureRecordings()
	if !frozen.Load() {
		t.Fatal("building the recording cache must freeze the registry")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic recording an unknown profile after freeze")
		}
	}()
	Recorded(Profile{Name: "no-such-profile", build: func(region, seed uint64) trace.Generator {
		return trace.NewStream(trace.StreamConfig{Name: "x", Size: 1 << 20, Seed: seed})
	}}, 1_000)
}

// TestTraceDirRoundTrip checks the property that lets recordings live only
// in the process that uses them, with no trace directory to persist them
// in: a recording is a pure function of (profile, seed, budget).
// Re-recording a cached recording's core-0 replay at its budget reproduces
// it record for record, and the recording at a larger budget is a
// distinct cache entry that extends it.
func TestTraceDirRoundTrip(t *testing.T) {
	p, err := ByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 7_000
	rec := Recorded(p, budget)
	again := trace.RecordStream(HomogeneousMix(p, 1, budget)[0], budget)
	if again.Name() != rec.Name() || again.Len() != rec.Len() || again.Instructions() != rec.Instructions() {
		t.Fatalf("re-recorded %q/%d/%d, cached %q/%d/%d",
			again.Name(), again.Len(), again.Instructions(), rec.Name(), rec.Len(), rec.Instructions())
	}
	cached, reRecorded := rec.Replayer(0), again.Replayer(0)
	for i := 0; i < rec.Len(); i++ {
		if got, want := reRecorded.Next(), cached.Next(); got != want {
			t.Fatalf("record %d: re-recorded %+v, cached %+v", i, got, want)
		}
	}

	const budget2 = 8_000
	longer := Recorded(p, budget2)
	if longer == rec {
		t.Fatal("distinct budgets must not share a recording")
	}
	if longer.Instructions() < budget2 {
		t.Fatalf("recording covers %d instructions, want >= %d", longer.Instructions(), budget2)
	}
	cached, extended := rec.Replayer(0), longer.Replayer(0)
	for i := 0; i < rec.Len(); i++ {
		if got, want := extended.Next(), cached.Next(); got != want {
			t.Fatalf("record %d: budget %d gives %+v, budget %d gives %+v", i, budget2, got, budget, want)
		}
	}
}
