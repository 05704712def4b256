package experiments

import (
	"fmt"
	"testing"

	"chrome/internal/cache"
	"chrome/internal/sim"
	"chrome/internal/workload"
)

// TestConservation holds every scheme to per-level counter conservation on
// the scaled 1-, 4- and 16-core systems with the default prefetchers: every
// miss is filled or bypassed, no fill outnumbers the misses of its kind, no
// level evicts, writes back or credits a prefetch it did not fill, and the
// private levels never bypass. CI also runs it under the simcheck
// sanitizer.
func TestConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	pf := PFDefault()
	names := []string{"mcf", "lbm", "omnetpp", "libquantum"}
	for _, cores := range []int{1, 4, 16} {
		profiles := make([]workload.Profile, cores)
		for i := range profiles {
			p, err := workload.ByName(names[i%len(names)])
			if err != nil {
				t.Fatal(err)
			}
			profiles[i] = p
		}
		mix := workload.Mix{Profiles: profiles}
		for _, s := range AllSchemes() {
			t.Run(fmt.Sprintf("%dc/%s", cores, s.Name), func(t *testing.T) {
				cfg := sim.ScaledConfig(cores)
				cfg.L1Prefetcher, cfg.L2Prefetcher = pf.L1, pf.L2
				sys := sim.New(cfg, mix.Generators(25_000), s.Factory)
				sys.Run(5_000, 20_000)
				for i := range cores {
					checkConservation(t, fmt.Sprintf("L1[%d]", i), sys.L1(i).Stats(), false)
					checkConservation(t, fmt.Sprintf("L2[%d]", i), sys.L2(i).Stats(), false)
				}
				llc := sys.LLC().Stats()
				if llc.Fills+llc.Bypasses == 0 {
					t.Fatal("LLC saw no misses: the budget is too short to test anything")
				}
				checkConservation(t, "LLC", llc, true)
			})
		}
	}
}

// checkConservation reports every conservation law one level's measured
// counters break.
func checkConservation(t *testing.T, level string, s *cache.Stats, mayBypass bool) {
	t.Helper()
	demandMisses := s.DemandLoadMisses + s.DemandStoreMisses
	if s.Fills+s.Bypasses != demandMisses+s.PrefetchMisses {
		t.Errorf("%s: fills %d + bypasses %d != demand misses %d + prefetch misses %d",
			level, s.Fills, s.Bypasses, demandMisses, s.PrefetchMisses)
	}
	// Demand and prefetch fills each come from their own misses, so a
	// bypass counted as a fill shows even where the sum above balances.
	if s.PrefetchFills > s.PrefetchMisses || s.Fills > s.PrefetchFills+demandMisses {
		t.Errorf("%s: fills %d (prefetch %d) exceed demand misses %d + prefetch fills, or prefetch misses %d",
			level, s.Fills, s.PrefetchFills, demandMisses, s.PrefetchMisses)
	}
	if s.Evictions > s.Fills {
		t.Errorf("%s: evictions %d > fills %d", level, s.Evictions, s.Fills)
	}
	if s.EvictionsUnused > s.Evictions || s.EvictionsUnusedPF > s.EvictionsUnused {
		t.Errorf("%s: unused-prefetched evictions %d ≤ unused %d ≤ evictions %d does not hold",
			level, s.EvictionsUnusedPF, s.EvictionsUnused, s.Evictions)
	}
	if s.Writebacks > s.Evictions {
		t.Errorf("%s: writebacks %d > evictions %d", level, s.Writebacks, s.Evictions)
	}
	if s.PrefetchUseful > s.PrefetchFills {
		t.Errorf("%s: useful prefetches %d > prefetch fills %d", level, s.PrefetchUseful, s.PrefetchFills)
	}
	if !mayBypass && s.Bypasses != 0 {
		t.Errorf("%s: %d bypasses at a private level", level, s.Bypasses)
	}
}
