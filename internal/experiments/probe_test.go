package experiments

import (
	"testing"

	"chrome/internal/cache"
	"chrome/internal/mem"
	"chrome/internal/workload"
)

func TestReuseTracker(t *testing.T) {
	var tr reuseTracker
	if tr.reRequestedRatio() != 0 {
		t.Fatal("empty tracker ratio should be 0")
	}
	tr.record(0x40)
	tr.record(0x80)
	tr.observe(0x7f) // same block as 0x40
	tr.observe(0x40) // second request must not count again
	tr.observe(0xC0) // never recorded: no effect
	if tr.total != 2 || tr.reRequested != 1 {
		t.Fatalf("tracker state total=%d rereq=%d, want 2 and 1", tr.total, tr.reRequested)
	}
	if got := tr.reRequestedRatio(); got != 0.5 {
		t.Fatalf("ratio = %v, want 1/2", got)
	}
}

// TestTrackerBoundedMemory: the tracker must not grow past trackerLimit,
// and a record past it is counted but never re-requested.
func TestTrackerBoundedMemory(t *testing.T) {
	var tr reuseTracker
	const n = trackerLimit + 100
	for i := range n {
		tr.record(mem.Addr(i * 64))
	}
	if len(tr.pending) != trackerLimit {
		t.Fatalf("tracker holds %d entries, limit %d", len(tr.pending), trackerLimit)
	}
	if tr.total != n {
		t.Fatalf("total = %d, want %d (counting continues past the limit)", tr.total, n)
	}
	tr.observe(mem.Addr((n - 1) * 64))
	if tr.reRequested != 0 {
		t.Fatal("a record past the limit was tracked")
	}
}

// scriptPolicy bypasses every miss while bypass is set and fills way 0
// otherwise.
type scriptPolicy struct{ bypass bool }

func (*scriptPolicy) Name() string { return "script" }

func (s *scriptPolicy) Victim(mem.SetIdx, []cache.Block, mem.Access) (int, bool) {
	return 0, s.bypass
}

func (*scriptPolicy) OnHit(mem.SetIdx, int, []cache.Block, mem.Access)  {}
func (*scriptPolicy) OnFill(mem.SetIdx, int, []cache.Block, mem.Access) {}
func (*scriptPolicy) OnEvict(mem.SetIdx, int, []cache.Block)            {}

// TestReuseProbeScripted drives a one-way cache through the probe: a
// bypassed block is re-requested only by a demand, not by a prefetch or a
// writeback; an unused victim is re-requested by any request; a victim
// that a demand hit is not recorded at all.
func TestReuseProbeScripted(t *testing.T) {
	inner := &scriptPolicy{bypass: true}
	probe := &reuseProbe{Policy: inner}
	c := cache.New(cache.Config{Name: "T", Sets: 1, Ways: 1}, probe)
	cycle := mem.Cycle(0)
	access := func(typ mem.AccessType, addr mem.Addr) {
		cycle++
		c.Access(mem.Access{PC: 1, Addr: addr, Type: typ, Cycle: cycle})
	}
	const a, b, d = 0x1000, 0x2000, 0x3000

	access(mem.Load, a) // bypassed
	access(mem.Writeback, a)
	inner.bypass = false
	access(mem.Prefetch, a) // fills the empty way
	if probe.bypassed.total != 1 || probe.bypassed.reRequested != 0 {
		t.Fatalf("after a writeback and a prefetch of a bypassed block: bypassed %+v, want 1 record, 0 re-requested", probe.bypassed)
	}
	access(mem.Load, a) // demand hit
	if probe.bypassed.reRequested != 1 {
		t.Fatalf("a demand of a bypassed block: bypassed re-requested %d, want 1", probe.bypassed.reRequested)
	}

	access(mem.Load, b) // evicts a, which the demand hit used
	if probe.evicted.total != 0 {
		t.Fatalf("a used victim was recorded: evicted %+v", probe.evicted)
	}
	access(mem.Load, d)     // evicts b unused
	access(mem.Prefetch, b) // re-requests b, evicts d unused
	if probe.evicted.total != 2 || probe.evicted.reRequested != 1 {
		t.Fatalf("evicted %+v, want 2 unused victims, 1 re-requested", probe.evicted)
	}
	if st := c.Stats(); st.Bypasses != probe.bypassed.total || st.EvictionsUnused != probe.evicted.total {
		t.Fatalf("cache counted %d bypasses and %d unused evictions, probe %d and %d",
			st.Bypasses, st.EvictionsUnused, probe.bypassed.total, probe.evicted.total)
	}
}

// TestReuseProbeCountsEveryEvent runs the probe on a whole system with no
// warmup, so the LLC's counters and the probe cover the same requests: the
// probe must record every bypass and every unused eviction the LLC counts.
func TestReuseProbeCountsEveryEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	sc := Scale{Warmup: 0, Measure: 150_000}
	for _, tc := range []struct {
		workload string
		scheme   Scheme
		bypasses bool
	}{
		{"xz", MockingjayScheme(), true},
		{"gcc", GliderScheme(), false},
	} {
		p, err := workload.ByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		res, probe := runMixProbed(sc.homoGens(p, 4), 4, tc.scheme, PFDefault(), sc)
		st := res.LLC
		if probe.bypassed.total != st.Bypasses || probe.evicted.total != st.EvictionsUnused {
			t.Errorf("%s on %s: LLC counted %d bypasses and %d unused evictions, probe recorded %d and %d",
				tc.scheme.Name, tc.workload, st.Bypasses, st.EvictionsUnused, probe.bypassed.total, probe.evicted.total)
		}
		if probe.evicted.reRequested == 0 || tc.bypasses && probe.bypassed.reRequested == 0 {
			t.Errorf("%s on %s: no unused victim or no bypassed block was requested again: the run exercises too little",
				tc.scheme.Name, tc.workload)
		}
		t.Logf("%s on %s: %d bypasses (%d demanded again), %d unused evictions (%d requested again)",
			tc.scheme.Name, tc.workload, probe.bypassed.total, probe.bypassed.reRequested,
			probe.evicted.total, probe.evicted.reRequested)
	}
}
