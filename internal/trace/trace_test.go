package trace

import (
	"testing"
	"testing/quick"

	"chrome/internal/mem"
)

// drain collects n records.
func drain(g Generator, n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// sameRecords reports element-wise equality.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func generators() []Generator {
	return []Generator{
		NewStream(StreamConfig{Name: "s", Region: 1, Size: 1 << 20, Writes: 0.3, Seed: 7}),
		NewStride(StrideConfig{Name: "st", Region: 2, Streams: 3, Size: 1 << 20, Writes: 1}),
		NewWorkingSet(WorkingSetConfig{Name: "ws", Region: 3, Size: 1 << 20, HotFrac: 0.5, Writes: 0.2, Seed: 7}),
		NewPointerChase(PointerChaseConfig{Name: "pc", Region: 4, Size: 1 << 20, AuxFrac: 0.5, Seed: 7}),
		NewMixed("mx", 7, []Generator{
			NewStream(StreamConfig{Name: "a", Region: 5, Size: 1 << 20, Seed: 7}),
			NewWorkingSet(WorkingSetConfig{Name: "b", Region: 6, Size: 1 << 20, Seed: 7}),
		}, []float64{1, 2}),
		NewPhased("ph", 100,
			NewStream(StreamConfig{Name: "a", Region: 7, Size: 1 << 20, Seed: 7}),
			NewStream(StreamConfig{Name: "b", Region: 8, Size: 1 << 20, Seed: 7})),
		NewGraph(GraphConfig{Name: "g", Kernel: KernelPR, Kind: GraphPowerLaw, Region: 9, Vertices: 1 << 10, AvgDegree: 4, Seed: 7}),
	}
}

func TestResetReproducesStream(t *testing.T) {
	for _, g := range generators() {
		first := drain(g, 2000)
		g.Reset()
		second := drain(g, 2000)
		if !sameRecords(first, second) {
			t.Errorf("%s: Reset did not reproduce the stream", g.Name())
		}
	}
}

func TestGeneratorsStayInTheirRegions(t *testing.T) {
	for _, g := range generators() {
		name := g.Name()
		for i := 0; i < 5000; i++ {
			rec := g.Next()
			if rec.Addr >= 1<<36 {
				t.Fatalf("%s: address %#x outside any declared region", name, uint64(rec.Addr))
			}
		}
	}
}

func TestStreamIsSequential(t *testing.T) {
	g := NewStream(StreamConfig{Name: "s", Region: 0, Size: 1 << 16, Stride: 64, Seed: 1})
	prev := g.Next().Addr
	for i := 0; i < 2000; i++ {
		cur := g.Next().Addr
		if cur != prev+64 && cur != g.base {
			t.Fatalf("stream jumped from %#x to %#x", uint64(prev), uint64(cur))
		}
		prev = cur
	}
}

func TestStreamWraps(t *testing.T) {
	g := NewStream(StreamConfig{Name: "s", Region: 0, Size: 1024, Stride: 64, Seed: 1})
	seen := map[mem.Addr]bool{}
	for i := 0; i < 64; i++ {
		seen[g.Next().Addr] = true
	}
	if len(seen) != 16 {
		t.Fatalf("expected 16 distinct addresses in a 1KB/64B wrap, got %d", len(seen))
	}
}

func TestPointerChaseCoversAllNodes(t *testing.T) {
	const size = 64 * 1024
	const nodeSize = 128
	g := NewPointerChase(PointerChaseConfig{Name: "pc", Region: 0, Size: size, NodeSize: nodeSize, Seed: 3})
	nodes := uint64(size / nodeSize)
	seen := map[mem.Addr]bool{}
	for i := uint64(0); i < nodes; i++ {
		rec := g.Next()
		if !rec.Dependent {
			t.Fatal("chase loads must be dependent")
		}
		seen[rec.Addr] = true
	}
	// Sattolo's single cycle must visit every node exactly once per lap.
	if uint64(len(seen)) != nodes {
		t.Fatalf("one lap visited %d distinct nodes, want %d (not a single cycle)", len(seen), nodes)
	}
}

func TestPointerChaseAuxFollowsNode(t *testing.T) {
	g := NewPointerChase(PointerChaseConfig{Name: "pc", Region: 0, Size: 1 << 16, NodeSize: 128, AuxFrac: 1.0, Seed: 3})
	for i := 0; i < 100; i++ {
		chase := g.Next()
		aux := g.Next()
		if aux.Dependent {
			t.Fatal("aux access must not be dependent")
		}
		if aux.Addr != chase.Addr+mem.BlockSize {
			t.Fatalf("aux addr %#x does not follow chase addr %#x", uint64(aux.Addr), uint64(chase.Addr))
		}
	}
}

func TestMixedRespectsWeights(t *testing.T) {
	a := NewStream(StreamConfig{Name: "a", Region: 1, Size: 1 << 20, Seed: 1})
	b := NewStream(StreamConfig{Name: "b", Region: 2, Size: 1 << 20, Seed: 1})
	g := NewMixed("m", 42, []Generator{a, b}, []float64{3, 1})
	counts := map[uint64]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[uint64(g.Next().Addr)>>28]++
	}
	fracA := float64(counts[1]) / n
	if fracA < 0.70 || fracA > 0.80 {
		t.Fatalf("sub-generator A drew %.2f of accesses, want about 0.75", fracA)
	}
}

func TestMixedPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched subs/weights")
		}
	}()
	NewMixed("bad", 1, []Generator{NewStream(StreamConfig{Name: "a"})}, nil)
}

func TestPhasedSwitches(t *testing.T) {
	a := NewStream(StreamConfig{Name: "a", Region: 1, Size: 1 << 20, Seed: 1})
	b := NewStream(StreamConfig{Name: "b", Region: 2, Size: 1 << 20, Seed: 1})
	g := NewPhased("p", 50, a, b)
	for i := 0; i < 50; i++ {
		if got := uint64(g.Next().Addr) >> 28; got != 1 {
			t.Fatalf("record %d: expected phase A (region 1), got region %d", i, got)
		}
	}
	for i := 0; i < 50; i++ {
		if got := uint64(g.Next().Addr) >> 28; got != 2 {
			t.Fatalf("record %d of phase B: expected region 2, got region %d", i, got)
		}
	}
	if got := uint64(g.Next().Addr) >> 28; got != 1 {
		t.Fatalf("expected wrap back to phase A, got region %d", got)
	}
}

func TestRebaseShiftsAddresses(t *testing.T) {
	mk := func() Generator {
		return NewStream(StreamConfig{Name: "a", Region: 1, Size: 1 << 20, Seed: 1})
	}
	base, shifted := mk(), Rebase(mk(), 1<<36)
	for i := 0; i < 1000; i++ {
		b, s := base.Next(), shifted.Next()
		if s.Addr != b.Addr+1<<36 {
			t.Fatalf("rebase mismatch: %#x vs %#x", uint64(s.Addr), uint64(b.Addr))
		}
		if s.PC != b.PC || s.Write != b.Write || s.Gap != b.Gap {
			t.Fatal("rebase must only change the address")
		}
	}
}

func TestGraphKernelsEmitValidAccesses(t *testing.T) {
	for _, k := range []GraphKernel{KernelBFS, KernelCC, KernelPR, KernelSSSP, KernelBC} {
		g := NewGraph(GraphConfig{
			Name: k.String(), Kernel: k, Kind: GraphUniform, Region: 1,
			Vertices: 1 << 10, AvgDegree: 4, Seed: 5,
		})
		writes := 0
		for i := 0; i < 10000; i++ {
			rec := g.Next()
			if rec.Write {
				writes++
			}
		}
		if writes == 0 {
			t.Errorf("%s: expected vertex-result writes", k)
		}
	}
}

func TestGraphPowerLawIsSkewed(t *testing.T) {
	// Power-law graphs must concentrate property-gather traffic on hub
	// vertices (low ids) far more than uniform graphs.
	hubFraction := func(kind GraphKind) float64 {
		g := NewGraph(GraphConfig{Name: "g", Kernel: KernelPR, Kind: kind, Region: 1,
			Vertices: 1 << 12, AvgDegree: 8, Seed: 9})
		hub, total := 0, 0
		for i := 0; i < 50000; i++ {
			rec := g.Next()
			if rec.PC == g.pcBase+16 { // property gather
				total++
				v := (rec.Addr - g.propBase) / 8
				if uint64(v) < uint64(g.g.n)/8 {
					hub++
				}
			}
		}
		if total == 0 {
			return 0
		}
		return float64(hub) / float64(total)
	}
	pl := hubFraction(GraphPowerLaw)
	un := hubFraction(GraphUniform)
	if pl < un+0.2 {
		t.Fatalf("power-law hub fraction %.2f not clearly above uniform %.2f", pl, un)
	}
}

func TestRecordGapIsBounded(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewWorkingSet(WorkingSetConfig{Name: "w", Region: 1, Size: 1 << 20, Gap: 5, Seed: seed})
		for i := 0; i < 100; i++ {
			if g.Next().Gap != 5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestWorkingSetHotFraction(t *testing.T) {
	g := NewWorkingSet(WorkingSetConfig{
		Name: "w", Region: 1, Size: 4 << 20, HotSize: 256 << 10,
		HotFrac: 0.7, Seed: 11,
	})
	hot := 0
	const n = 40000
	hotLimit := regionBase(1) + mem.Addr(256<<10)
	for i := 0; i < n; i++ {
		if g.Next().Addr < hotLimit {
			hot++
		}
	}
	// Hot draws plus the hot region's share of cold draws.
	frac := float64(hot) / n
	if frac < 0.65 || frac > 0.80 {
		t.Fatalf("hot fraction %.2f, want about 0.7", frac)
	}
}

func TestStreamWriteFraction(t *testing.T) {
	g := NewStream(StreamConfig{Name: "s", Region: 1, Size: 1 << 20, Writes: 0.25, Seed: 3})
	writes := 0
	const n = 40000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("write fraction %.3f, want about 0.25", frac)
	}
}

func TestStrideStreamsUseDistinctPCs(t *testing.T) {
	g := NewStride(StrideConfig{Name: "st", Region: 1, Streams: 4, Size: 1 << 20})
	pcs := map[mem.PC]bool{}
	for i := 0; i < 100; i++ {
		pcs[g.Next().PC] = true
	}
	if len(pcs) != 4 {
		t.Fatalf("saw %d distinct PCs, want 4 (one per stream)", len(pcs))
	}
}

func TestGraphSweepRevisitsVertices(t *testing.T) {
	g := NewGraph(GraphConfig{
		Name: "g", Kernel: KernelPR, Kind: GraphUniform, Region: 1,
		Vertices: 256, AvgDegree: 4, Seed: 13,
	})
	// Two full sweeps over a tiny graph must revisit offset addresses.
	seen := map[mem.Addr]int{}
	for i := 0; i < 20000; i++ {
		rec := g.Next()
		if rec.PC == g.pcBase { // offset reads
			seen[rec.Addr]++
		}
	}
	revisited := 0
	for _, n := range seen {
		if n > 1 {
			revisited++
		}
	}
	if revisited == 0 {
		t.Fatal("PR sweeps never revisited an offset address")
	}
}
