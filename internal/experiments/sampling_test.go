package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"chrome/internal/mem"
	"chrome/internal/sim"
	"chrome/internal/trace"
	"chrome/internal/workload"
)

// twoPhaseGen is a synthetic workload with two sharply distinct phases of
// known cache behaviour: the first half of the stream loops over a tiny
// working set (near-zero LLC misses), the second half strides through a
// working set far larger than the LLC (near-total misses). Phase-aware
// sampling must represent both phases to estimate the whole.
type twoPhaseGen struct {
	i     uint64
	total uint64
}

func (g *twoPhaseGen) Name() string { return "two-phase" }
func (g *twoPhaseGen) Reset()       { g.i = 0 }

func (g *twoPhaseGen) Next() trace.Record {
	i := g.i
	g.i++
	var block uint64
	if i < g.total/2 {
		block = i % 16 // resident working set
	} else {
		block = 1<<16 + i%(1<<15) // thrashing working set
	}
	return trace.Record{
		PC:   mem.PCOf(0x400000 + (i%64)*4),
		Addr: mem.AddrOf(block << 6),
		Gap:  0,
	}
}

// demandMPKI extracts misses per kilo-instruction over the measurement
// window from a result.
func demandMPKI(r sim.Result) float64 {
	var instrs uint64
	for _, n := range r.Instructions {
		instrs += n.Uint64()
	}
	if instrs == 0 {
		return 0
	}
	misses := r.LLC.DemandLoadMisses + r.LLC.DemandStoreMisses
	return float64(misses) * 1000 / float64(instrs)
}

// samplingScale is a Scale whose sampled variant selects representative
// intervals out of an 8-interval measurement window.
func samplingScale() Scale {
	return Scale{
		Warmup: 10_000, Measure: 80_000,
		Seed:     1,
		Sampling: "simpoint", SPInterval: 10_000, SPWarmup: 2_000, SPClusters: 4,
	}
}

// TestSampledEstimateTwoPhase is the estimator's accuracy property: on a
// synthetic workload with two known phases, the weighted representative
// estimate must land within tolerance of the exact run for both MPKI and
// IPC — which requires the clustering to have represented both phases
// (any single-phase selection misestimates MPKI by ~2x here).
func TestSampledEstimateTwoPhase(t *testing.T) {
	sc := samplingScale()
	rec := trace.RecordStream(&twoPhaseGen{total: sc.budget().Uint64() + 1}, sc.budget())
	gens := func() []trace.Generator {
		return []trace.Generator{rec.Replayer(0)}
	}

	exactSc := sc
	exactSc.Sampling, exactSc.SPInterval, exactSc.SPWarmup, exactSc.SPClusters = "none", 0, 0, 0
	exact := runMix(gens(), 1, LRUScheme(), PFNone(), exactSc)
	sampled := runMix(gens(), 1, LRUScheme(), PFNone(), sc)

	exactMPKI, sampledMPKI := demandMPKI(exact), demandMPKI(sampled)
	if exactMPKI == 0 {
		t.Fatalf("exact run has zero MPKI; the synthetic phases are broken: %+v", exact.LLC)
	}
	if relErr := math.Abs(sampledMPKI-exactMPKI) / exactMPKI; relErr > 0.15 {
		t.Fatalf("sampled MPKI %0.2f vs exact %0.2f: relative error %0.3f > 0.15", sampledMPKI, exactMPKI, relErr)
	}
	if relErr := math.Abs(sampled.IPC[0]-exact.IPC[0]) / exact.IPC[0]; relErr > 0.15 {
		t.Fatalf("sampled IPC %0.3f vs exact %0.3f: relative error %0.3f > 0.15", sampled.IPC[0], exact.IPC[0], relErr)
	}

	// The estimate must also be far closer to exact than a naive
	// single-phase reading would be: simulating only the resident phase
	// reads ~0 MPKI, only the thrashing phase ~2x. Guard the midpoint gap.
	if sampledMPKI < exactMPKI*0.5 || sampledMPKI > exactMPKI*1.5 {
		t.Fatalf("sampled MPKI %0.2f outside [0.5, 1.5]x exact %0.2f: single-phase collapse", sampledMPKI, exactMPKI)
	}
}

// TestSampledRunDeterministic pins bit-determinism of the whole sampled
// path (profiling, k-means, representative replay): repeated runs at equal
// seeds produce identical results.
func TestSampledRunDeterministic(t *testing.T) {
	sc := samplingScale()
	p, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	a := runMix(sc.homoGens(p, 2), 2, LRUScheme(), PFDefault(), sc)
	b := runMix(sc.homoGens(p, 2), 2, LRUScheme(), PFDefault(), sc)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated sampled runs diverged:\nfirst  %+v\nsecond %+v", a, b)
	}
}

// TestSampledParallelMatchesSequential renders the golden runner set with
// simpoint sampling at -j 1 and -j 4: byte-identical output certifies the
// k-means selection and weighted composition are independent of worker
// scheduling.
func TestSampledParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	base := tinyScale()
	base.Sampling, base.SPInterval, base.SPWarmup, base.SPClusters = "simpoint", 5_000, 2_000, 3
	seq, par := base, base
	seq.Parallelism, par.Parallelism = 1, 4
	a, b := renderGolden(t, seq), renderGolden(t, par)
	if a != b {
		t.Fatalf("sampled parallel output diverged from sequential:\n--- -j 1 ---\n%s\n--- -j 4 ---\n%s", a, b)
	}
	if len(a) < 100 {
		t.Fatalf("sampled golden output suspiciously small:\n%s", a)
	}
}

// TestSamplingNoneMatchesDefault pins that the "none" selector is the
// exact path: explicit none and the zero value produce identical results.
func TestSamplingNoneMatchesDefault(t *testing.T) {
	sc := tinyScale()
	none := sc
	none.Sampling = "none"
	p, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	a := runMix(sc.homoGens(p, 2), 2, LRUScheme(), PFDefault(), sc)
	b := runMix(none.homoGens(p, 2), 2, LRUScheme(), PFDefault(), none)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("-sampling none diverged from default:\ndefault %+v\nnone    %+v", a, b)
	}
}

// TestValidateSampling covers the friendly-error contract of the sampling
// knobs: every misuse dies in Validate with a message naming the fix, not
// in a panic deep in the runner.
func TestValidateSampling(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scale)
		want string
	}{
		{"unknown mode", func(sc *Scale) { sc.Sampling = "simpoints" }, "unknown sampling mode"},
		{"knobs without mode", func(sc *Scale) { sc.SPInterval = 1000 }, "require -sampling simpoint"},
		{"negative clusters", func(sc *Scale) { sc.Sampling = "simpoint"; sc.SPClusters = -1 }, "negative"},
		{"interval over measure", func(sc *Scale) { sc.Sampling = "simpoint"; sc.SPInterval = 10 * sc.Measure }, "exceeds the measure budget"},
		{"warmup over warmup", func(sc *Scale) { sc.Sampling = "simpoint"; sc.SPWarmup = 10 * sc.Warmup }, "exceeds the full warmup budget"},
	}
	for _, c := range cases {
		sc := QuickScale()
		c.mut(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", c.name, sc)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	ok := QuickScale()
	ok.Sampling, ok.SPInterval, ok.SPWarmup, ok.SPClusters = "simpoint", 20_000, 5_000, 4
	if err := ok.Validate(); err != nil {
		t.Errorf("valid sampling scale rejected: %v", err)
	}
	if err := QuickScale().Validate(); err != nil {
		t.Errorf("default scale rejected: %v", err)
	}
}
