package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"

	"chrome/internal/sim"
	"chrome/internal/workload"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4), whose "exclusive" method the
	// acceptance spread uses.
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if med := median(c.xs); med != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.xs, med, q1, q3, c.med, c.q1, c.q3)
		}
	}
}

func TestPercentileAndTailRule(t *testing.T) {
	xs := make([]int, 100)
	for i := range xs {
		xs[i] = i + 1
	}
	if p50, p99 := percentile(xs, 50), percentile(xs, 99); p50 != 50 || p99 != 99 {
		t.Errorf("p50 %d p99 %d of 1..100, want 50 99", p50, p99)
	}
	// The tail reported is the highest with at least ten samples beyond.
	for n, want := range map[int]float64{5: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 10_000: 99.9, 2_200_000: 99.99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestCalibratedNsNeverNegative(t *testing.T) {
	tr := newTracer()
	tr.calibrate()
	if tr.timerNs < 0 || tr.pairNs <= 0 {
		t.Fatalf("calibration timer %v pair %v", tr.timerNs, tr.pairNs)
	}
	// A call faster than the timer itself reads as zero, not negative.
	p := &probe{calls: 32, sampled: 2, ns: 10}
	if got := p.perCall(tr.timerNs + 100); got != 0 {
		t.Errorf("perCall below the timer cost = %v, want 0", got)
	}
	if got := p.selfSeconds(tr.timerNs + 100); got != 0 {
		t.Errorf("selfSeconds below the timer cost = %v, want 0", got)
	}
	if got := (&probe{calls: 5}).perCall(tr.timerNs); got != 0 {
		t.Errorf("perCall with no samples = %v, want 0", got)
	}
}

// smallMix is a mix workload cut to two mixes at a small budget.
func smallMix(t *testing.T) *mixBench {
	t.Helper()
	b := newMixBench("mix4-chrome", chromeScheme, 1, 10_000, 30_000)
	b.recs, b.names = b.recs[:2], b.names[:2]
	return b
}

func TestMixPlanCoversThePool(t *testing.T) {
	names := func(seed uint64) []string {
		var out []string
		for _, mix := range mixPlan(seed) {
			for _, p := range mix {
				out = append(out, p.Name)
			}
		}
		return out
	}
	got := names(7)
	if !slices.Equal(got, names(7)) || slices.Equal(got, names(8)) {
		t.Error("the plan must be a function of the seed, and differ between seeds")
	}
	var want []string
	for _, p := range workload.SPEC() {
		want = append(want, p.Name)
	}
	slices.Sort(got)
	got = slices.Compact(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("plan covers %v, want every SPEC profile %v", got, want)
	}
}

func TestTamperedReferenceFails(t *testing.T) {
	dir := t.TempDir()
	b := smallMix(t)
	b.upd = func(cells []cell) error {
		return updateRef(dir, 1, func(r *reference) { r.Cells[b.workload] = cells })
	}
	l := &ledger{}
	b.rep(l)
	if l.failed != 0 {
		t.Fatalf("%d failures on the pinning repetition", l.failed)
	}
	ref, err := loadRef(dir, 1)
	if err != nil || ref == nil {
		t.Fatalf("loadRef: %v, %v", ref, err)
	}
	b.ref, b.upd = ref.Cells[b.workload], nil
	b.rep(l)
	if l.failed != 0 {
		t.Fatalf("%d failures against an untampered reference", l.failed)
	}
	b.ref[1].LLC.Fills++
	b.rep(l)
	if l.failed == 0 {
		t.Fatal("a tampered reference counter went unnoticed")
	}
}

func TestShimsAreTransparent(t *testing.T) {
	b := smallMix(t)
	for i := range b.recs {
		plain := sim.New(b.config(), b.replayers(i), b.scheme().Factory).Run(b.warmup, b.measure)
		s := &shims{}
		shimmed := b.shimmed(i, s).Run(b.warmup, b.measure)
		if !reflect.DeepEqual(plain, shimmed) {
			t.Errorf("mix %d: shimmed result differs:\n%+v\n%+v", i, plain, shimmed)
		}
		if s.trace.calls == 0 || s.prefetch.calls == 0 || s.hooks[hookVictim].calls == 0 {
			t.Errorf("mix %d: a shim saw no calls", i)
		}
	}
}

func TestTracedLayersCheckOut(t *testing.T) {
	b := smallMix(t)
	l := &ledger{}
	b.rep(l)
	m := map[string]float64{}
	tr := newTracer()
	tr.calibrate()
	if traced := b.layers(l, tr, m); traced <= 0 {
		t.Errorf("traced repetition took %v s", traced)
	}
	if l.failed != 0 {
		t.Fatalf("%d failures: the traced repetition or the replay probe disagrees", l.failed)
	}
	for _, name := range []string{"sim.self_pct", "chrome.victim.ns", "trace.next.ns", "cache.llc_replay.mono_ns", "cache.llc_replay.iface_ns", "cpu.step.ns"} {
		if m[name] < 0 {
			t.Errorf("%s = %v, negative", name, m[name])
		}
	}
	if m["chrome.victim.calls"] == 0 {
		t.Error("no CHROME victim calls counted")
	}
}

func TestObjValueCheckCatchesCorruption(t *testing.T) {
	l := &ledger{}
	bb, err := setupObj(options{seed: 1}, l)
	if err != nil || l.failed != 0 {
		t.Fatalf("set-up: %v, %d failures", err, l.failed)
	}
	b := bb.(*objBench)
	// The rank-0 key is the client's hottest: corrupt its stored bytes.
	c := b.clients[0]
	hot := c.offset % objKeys
	b.vals[hot][0] ^= 0xff
	b.batch(l, 20_000, b.clients[:1])
	if l.failed == 0 {
		t.Fatal("a corrupted value was served without a failure")
	}
	b.vals[hot][0] ^= 0xff
	if v, ok := b.c.Get(b.keys[hot]); ok && !b.valid(hot, v) {
		t.Error("the restored value fails the check")
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []bound `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Paths, []string{"bench"}) {
		t.Errorf("paths %v", spec.Paths)
	}
	var names []string
	for i, w := range spec.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].why {
			t.Errorf("workload %s: why differs from the registry", w.Name)
		}
	}
	if want, _ := workloadNames("all"); !slices.Equal(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEndMetrics) {
		t.Errorf("end_to_end %v, program prints %v", e2e, endToEndMetrics)
	}
	if !slices.Equal(layers, perLayerMetrics) {
		t.Errorf("per_layer %v, program prints %v", layers, perLayerMetrics)
	}
}

func TestVerdict(t *testing.T) {
	bd := bound{Name: "throughput", Better: "higher", Bound: 0.1}
	a := []float64{10, 10.2, 9.8, 10.1, 9.9, 10, 10.1, 9.9, 10, 10}
	plus := func(d float64) []float64 {
		out := slices.Clone(a)
		for i := range out {
			out[i] += d
		}
		return out
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{plus(2), "improved"},
		{plus(-2), "worse"},
		{plus(0.05), "unchanged"},
	} {
		if _, got := verdict(a, c.b, bd); got != c.want {
			t.Errorf("B = A%+.2f: %s, want %s", c.b[0]-a[0], got, c.want)
		}
	}
	noisy := []float64{5, 15, 6, 14, 5, 15, 6, 14, 5, 15}
	if _, got := verdict(noisy, noisy, bd); got != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", got)
	}
}
