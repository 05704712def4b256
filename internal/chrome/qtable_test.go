package chrome

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"chrome/internal/mem"
)

func TestOptimisticInitialization(t *testing.T) {
	cfg := DefaultConfig()
	qt := NewQTable(cfg)
	want := 1.0 / (1.0 - cfg.Gamma)
	st := NewState(123, 456)
	for a := Action(0); a < NumActions; a++ {
		got := qt.Q(st, a)
		if math.Abs(got-want) > 0.2 {
			t.Fatalf("initial Q(%v) = %v, want about %v", a, got, want)
		}
	}
}

func TestUpdateMovesTowardTarget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.5
	qt := NewQTable(cfg)
	st := NewState(1, 2)
	before := qt.Q(st, ActionBypass)
	qt.Update(st, ActionBypass, before+10, 0.5) // target above estimate
	after := qt.Q(st, ActionBypass)
	if after <= before {
		t.Fatalf("Q did not increase: %v -> %v", before, after)
	}
	qt.Update(st, ActionBypass, after-10, 0.5) // target below estimate
	if final := qt.Q(st, ActionBypass); final >= after {
		t.Fatalf("Q did not decrease: %v -> %v", after, final)
	}
	if qt.Updates() != 2 {
		t.Fatalf("updates = %d, want 2", qt.Updates())
	}
}

func TestUpdateAffectsOnlyChosenAction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.5
	qt := NewQTable(cfg)
	st := NewState(7, 8)
	beforeOther := qt.Q(st, ActionEPV1)
	qt.Update(st, ActionBypass, 20, 0.5)
	if got := qt.Q(st, ActionEPV1); got != beforeOther {
		t.Fatalf("unrelated action's Q changed: %v -> %v", beforeOther, got)
	}
}

func TestFeatureGeneralization(t *testing.T) {
	// Updating a state must move other states that share a feature (same
	// PC, different PN) but not unrelated states.
	cfg := DefaultConfig()
	cfg.Alpha = 0.5
	qt := NewQTable(cfg)
	trained := NewState(42, 100)
	sharesPC := NewState(42, 999)
	unrelated := NewState(43, 998)
	beforeShared := qt.Q(sharesPC, ActionEPV0)
	beforeUnrelated := qt.Q(unrelated, ActionEPV0)
	for i := 0; i < 50; i++ {
		qt.Update(trained, ActionEPV0, 20, 0.5)
	}
	if got := qt.Q(sharesPC, ActionEPV0); got <= beforeShared {
		t.Fatalf("PC-sharing state did not generalize: %v -> %v", beforeShared, got)
	}
	if got := qt.Q(unrelated, ActionEPV0); math.Abs(got-beforeUnrelated) > 1e-9 {
		t.Fatalf("unrelated state changed: %v -> %v", beforeUnrelated, got)
	}
}

func TestComposeMax(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.5
	qt := NewQTable(cfg)
	st := NewState(1, 2)
	// Train the PN feature alone so the two features' Q-values differ.
	for i := 0; i < 20; i++ {
		qt.Update(NewState(3, 2), ActionBypass, 10, 0.5)
	}
	featureQ := func(fi int) float64 {
		var sum int32
		for t := 0; t < SubTables; t++ {
			sum += int32(qt.partials[row(fi, t, st.Feature(fi))+int(ActionBypass)])
		}
		return float64(sum) / qScale
	}
	qPC, qPN := featureQ(0), featureQ(1)
	if qPC == qPN {
		t.Fatalf("features did not diverge: both %v", qPC)
	}
	if got, want := qt.Q(st, ActionBypass), math.Max(qPC, qPN); got != want {
		t.Fatalf("Q = %v, want max(%v, %v) = %v", got, qPC, qPN, want)
	}
}

func TestSingleFeatureConfigs(t *testing.T) {
	// A single-feature configuration produces 1-dimensional states: two
	// states sharing that value share Q; different values do not.
	for _, fs := range [][]FeatureKind{{FeatPCSignature}, {FeatPageNumber}} {
		cfg := DefaultConfig()
		cfg.StateFeatures = fs
		cfg.Alpha = 0.5
		qt := NewQTable(cfg)
		a := NewState(100)
		same := NewState(100)
		other := NewState(200)
		before := qt.Q(other, ActionEPV0)
		for i := 0; i < 30; i++ {
			qt.Update(a, ActionEPV0, 20, 0.5)
		}
		if qt.Q(same, ActionEPV0) != qt.Q(a, ActionEPV0) {
			t.Fatalf("%v: states sharing the feature must share Q", fs)
		}
		if qt.Q(other, ActionEPV0) != before {
			t.Fatalf("%v: unrelated feature value changed", fs)
		}
	}
}

func TestBestActionLegality(t *testing.T) {
	qt := NewQTable(DefaultConfig())
	f := func(pc, pn uint64) bool {
		st := NewState(pc, pn)
		aMiss, _ := qt.BestAction(st, false)
		aHit, _ := qt.BestAction(st, true)
		return aMiss < NumActions && aHit >= ActionEPV0 && aHit < NumActions
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBestActionTieBreaksToEPV0(t *testing.T) {
	qt := NewQTable(DefaultConfig())
	st := NewState(5, 6)
	if a, _ := qt.BestAction(st, false); a != ActionEPV0 {
		t.Fatalf("untrained miss state chose %v, want epv0 (LRU-like prior)", a)
	}
	if a, _ := qt.BestAction(st, true); a != ActionEPV0 {
		t.Fatalf("untrained hit state chose %v, want epv0", a)
	}
}

func TestBestActionPicksBypassWhenLearned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.5
	qt := NewQTable(cfg)
	st := NewState(9, 10)
	for i := 0; i < 100; i++ {
		qt.Update(st, ActionBypass, 10, 0.5)
		qt.Update(st, ActionEPV0, -10, 0.5)
	}
	// Per-feature TD targets converge each feature's estimate to the
	// target itself.
	if a, _ := qt.BestAction(st, false); a != ActionBypass {
		t.Fatalf("chose %v, want bypass after training", a)
	}
	// Hit states can never choose bypass.
	if a, _ := qt.BestAction(st, true); a == ActionBypass {
		t.Fatal("hit state chose bypass")
	}
}

func TestSaturation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 1.0
	qt := NewQTable(cfg)
	st := NewState(1, 1)
	for i := 0; i < 100000; i++ {
		qt.Update(st, ActionEPV2, 1000, 0.5)
	}
	got := qt.Q(st, ActionEPV2)
	limit := float64(SubTables) * math.MaxInt16 / qScale
	if got > limit {
		t.Fatalf("Q = %v beyond saturation limit %v", got, limit)
	}
}

func TestStochasticRoundingPreservesSmallSteps(t *testing.T) {
	// With alpha small enough that a step is < 1 fixed-point unit,
	// rnd below the fraction must still apply an increment.
	cfg := DefaultConfig()
	cfg.Alpha = 0.001
	qt := NewQTable(cfg)
	st := NewState(3, 4)
	before := qt.Q(st, ActionEPV0)
	qt.Update(st, ActionEPV0, before+1, 0.0) // rnd=0 -> round up any positive fraction
	if got := qt.Q(st, ActionEPV0); got <= before {
		t.Fatalf("small positive step lost to quantization: %v -> %v", before, got)
	}
}

func TestQuantize(t *testing.T) {
	cases := []struct {
		x, rnd float64
		want   int32
	}{
		{1.0, 0.5, 1},
		{1.4, 0.5, 1}, // frac 0.4 < rnd keeps floor
		{1.4, 0.3, 2}, // frac 0.4 > rnd rounds up
		{-0.5, 0.9, -1},
		{-0.5, 0.2, 0},
		{0, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantize(c.x, c.rnd); got != c.want {
			t.Errorf("quantize(%v, %v) = %d, want %d", c.x, c.rnd, got, c.want)
		}
	}
}

func TestSatAdd16(t *testing.T) {
	if got := satAdd16(math.MaxInt16, 10); got != math.MaxInt16 {
		t.Fatalf("positive saturation failed: %d", got)
	}
	if got := satAdd16(math.MinInt16, -10); got != math.MinInt16 {
		t.Fatalf("negative saturation failed: %d", got)
	}
	if got := satAdd16(5, -3); got != 2 {
		t.Fatalf("plain add failed: %d", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Alpha = -1 },
		func(c *Config) { c.Gamma = 1.0 },
		func(c *Config) { c.Epsilon = 2 },
		func(c *Config) { c.EQDepth = 1 },
		func(c *Config) { c.SampledSets = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid config did not panic", i)
				}
			}()
			NewQTable(cfg)
		}()
	}
}

func TestActionHelpers(t *testing.T) {
	if ActionBypass.EPV() != 0 || ActionEPV0.EPV() != 0 || ActionEPV1.EPV() != 1 || ActionEPV2.EPV() != 2 {
		t.Fatal("EPV mapping wrong")
	}
	names := map[Action]string{ActionBypass: "bypass", ActionEPV0: "epv0", ActionEPV1: "epv1", ActionEPV2: "epv2"}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
}

// nestedTable is a reference Q-table in the nested layout, one slice per
// (feature, sub-table), read through per-feature float Q-values and an
// argmax over them in float. The tests below hold QTable to it.
type nestedTable struct {
	alpha    float64
	partials [][][]int16 // [feature][sub-table][slot*NumActions+action]
	updates  uint64
}

func newNestedTable(cfg Config) *nestedTable {
	optimistic := 1.0 / (1.0 - cfg.Gamma)
	perPartial := int16(math.Round(optimistic * qScale / float64(4)))
	nt := &nestedTable{alpha: cfg.Alpha, partials: make([][][]int16, len(cfg.StateFeatures))}
	for f := range nt.partials {
		nt.partials[f] = make([][]int16, 4)
		for t := range nt.partials[f] {
			tab := make([]int16, (1<<11)*NumActions)
			for i := range tab {
				tab[i] = perPartial
			}
			nt.partials[f][t] = tab
		}
	}
	return nt
}

func (nt *nestedTable) index(sub int, feature uint64) uint64 {
	return mem.Mix64(feature^(0x9E3779B97F4A7C15*uint64(sub+1))) & (1<<11 - 1)
}

func (nt *nestedTable) sums(s State) (sums [MaxStateFeatures][NumActions]int32) {
	for fi := range nt.partials {
		for t, tab := range nt.partials[fi] {
			base := nt.index(t, s.Feature(fi)) * NumActions
			for a := range sums[fi] {
				sums[fi][a] += int32(tab[base+uint64(a)])
			}
		}
	}
	return sums
}

func (nt *nestedTable) compose(sums *[MaxStateFeatures][NumActions]int32, a Action) float64 {
	best := math.Inf(-1)
	for fi := range nt.partials {
		if q := float64(sums[fi][a]) / qScale; q > best {
			best = q
		}
	}
	return best
}

func (nt *nestedTable) q(s State, a Action) float64 {
	sums := nt.sums(s)
	return nt.compose(&sums, a)
}

func (nt *nestedTable) bestAction(s State, hit bool) (Action, float64) {
	sums := nt.sums(s)
	order := []Action{ActionEPV0, ActionEPV1, ActionEPV2, ActionBypass}
	if hit {
		order = order[:3]
	}
	best, bestQ := order[0], nt.compose(&sums, order[0])
	for _, a := range order[1:] {
		if q := nt.compose(&sums, a); q > bestQ {
			best, bestQ = a, q
		}
	}
	return best, bestQ
}

func (nt *nestedTable) update(s State, a Action, target, rnd float64) {
	nt.updates++
	for fi := range nt.partials {
		var sum int32
		for t, tab := range nt.partials[fi] {
			sum += int32(tab[nt.index(t, s.Feature(fi))*NumActions+uint64(a)])
		}
		delta := target - float64(sum)/qScale
		step := nt.alpha * delta * qScale / float64(4)
		inc := int16(quantize(step, rnd))
		if inc == 0 {
			continue
		}
		for t, tab := range nt.partials[fi] {
			idx := nt.index(t, s.Feature(fi))*NumActions + uint64(a)
			tab[idx] = satAdd16(tab[idx], inc)
		}
	}
}

// writeTo writes a CHQT checkpoint in the nested order: each feature's
// sub-tables in turn.
func (nt *nestedTable) writeTo(w io.Writer) {
	header := struct {
		Magic     [4]byte
		Version   uint8
		Features  uint8
		SubTables uint8
		Bits      uint8
	}{checkpointMagic, checkpointVersion, uint8(len(nt.partials)), 4, 11}
	binary.Write(w, binary.LittleEndian, header)
	binary.Write(w, binary.LittleEndian, nt.updates)
	for f := range nt.partials {
		for t := range nt.partials[f] {
			binary.Write(w, binary.LittleEndian, nt.partials[f][t])
		}
	}
}

// TestBestActionMatchesFloatPath holds BestAction and Q to the float path
// they replaced, over random tables of 1-4 features loaded from the nested
// writer's bytes. Each table draws its partials from a small pool, so
// exact ties across actions and across features are common; the pools
// include negative and saturated (±32,767, -32,768) partials, and one pool
// fills the whole table with one value, the untrained case.
func TestBestActionMatchesFloatPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	pools := [][]int16{
		{51},
		{0, 1},
		{math.MaxInt16, math.MinInt16},
		{-math.MaxInt16, math.MaxInt16, 0},
		{-3, -2, -1, 0, 1, 2, 3},
		{math.MinInt16, -math.MaxInt16, -1, 0, 1, 51, math.MaxInt16 - 1, math.MaxInt16},
		nil, // uniform over int16
	}
	for nf := 1; nf <= MaxStateFeatures; nf++ {
		cfg := DefaultConfig()
		cfg.StateFeatures = AllFeatureKinds()[:nf]
		for pi, pool := range pools {
			ref := newNestedTable(cfg)
			for _, tabs := range ref.partials {
				for _, tab := range tabs {
					for i := range tab {
						if pool == nil {
							tab[i] = int16(rng.Uint32())
						} else {
							tab[i] = pool[rng.IntN(len(pool))]
						}
					}
				}
			}
			var buf bytes.Buffer
			ref.writeTo(&buf)
			qt := NewQTable(cfg)
			if _, err := qt.ReadFrom(&buf); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				var f [MaxStateFeatures]uint64
				for j := range f {
					f[j] = rng.Uint64()
				}
				st := NewState(f[:nf]...)
				for _, hit := range []bool{false, true} {
					gotA, gotQ := qt.BestAction(st, hit)
					wantA, wantQ := ref.bestAction(st, hit)
					if gotA != wantA || math.Float64bits(gotQ) != math.Float64bits(wantQ) {
						t.Fatalf("%d features, pool %d, state %d, hit %v: BestAction = %v %v, float path %v %v",
							nf, pi, i, hit, gotA, gotQ, wantA, wantQ)
					}
				}
				for a := Action(0); a < NumActions; a++ {
					if got, want := qt.Q(st, a), ref.q(st, a); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%d features, pool %d, state %d: Q(%v) = %v, float path %v", nf, pi, i, a, got, want)
					}
				}
			}
		}
	}
}

// TestWriteToMatchesNestedWriter applies one sequence of SARSA updates to a
// QTable and to the nested table, some saturating, and requires WriteTo's
// bytes to be the nested writer's, byte for byte.
func TestWriteToMatchesNestedWriter(t *testing.T) {
	for nf := 1; nf <= MaxStateFeatures; nf++ {
		cfg := DefaultConfig()
		cfg.Alpha = 0.5
		cfg.StateFeatures = AllFeatureKinds()[:nf]
		qt, ref := NewQTable(cfg), newNestedTable(cfg)
		rng := rand.New(rand.NewPCG(3, uint64(nf)))
		var f [MaxStateFeatures]uint64
		for i := 0; i < 20000; i++ {
			for j := range f {
				f[j] = rng.Uint64N(64)
			}
			st := NewState(f[:nf]...)
			a := Action(rng.IntN(NumActions))
			target := rng.Float64()*4000 - 2000
			rnd := rng.Float64()
			qt.Update(st, a, target, rnd)
			ref.update(st, a, target, rnd)
		}
		var got, want bytes.Buffer
		n, err := qt.WriteTo(&got)
		if err != nil {
			t.Fatal(err)
		}
		ref.writeTo(&want)
		if n != int64(got.Len()) {
			t.Fatalf("%d features: WriteTo reported %d bytes, wrote %d", nf, n, got.Len())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d features: WriteTo's %d bytes differ from the nested writer's %d", nf, got.Len(), want.Len())
		}
	}
}
