package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"chrome/internal/mem"
)

// recordFamilies builds one fresh generator per family at a fixed seed;
// calling it twice yields independent but identical generators, which is
// exactly what record-vs-live equivalence needs.
func recordFamilies(seed uint64) map[string]func() Generator {
	return map[string]func() Generator{
		"stream": func() Generator {
			return NewStream(StreamConfig{Name: "s", Region: 1, Size: 1 << 20, Gap: 2, Writes: 0.3, Seed: seed})
		},
		"stride": func() Generator {
			return NewStride(StrideConfig{Name: "st", Region: 2, Streams: 3, Size: 1 << 20, Gap: 2, Writes: 1, Seed: seed})
		},
		"workingset": func() Generator {
			return NewWorkingSet(WorkingSetConfig{Name: "ws", Region: 3, Size: 1 << 20, HotFrac: 0.5, Gap: 3, Writes: 0.2, Seed: seed})
		},
		"pointerchase": func() Generator {
			return NewPointerChase(PointerChaseConfig{Name: "pc", Region: 4, Size: 1 << 20, Gap: 2, AuxFrac: 0.5, Seed: seed})
		},
		"mixed": func() Generator {
			return NewMixed("mx", seed, []Generator{
				NewStream(StreamConfig{Name: "a", Region: 5, Size: 1 << 20, Gap: 1, Seed: seed}),
				NewWorkingSet(WorkingSetConfig{Name: "b", Region: 6, Size: 1 << 20, HotFrac: 0.4, Gap: 2, Seed: seed}),
			}, []float64{0.6, 0.4})
		},
		"phased": func() Generator {
			return NewPhased("ph", 500,
				NewStream(StreamConfig{Name: "a", Region: 7, Size: 1 << 20, Gap: 1, Seed: seed}),
				NewStride(StrideConfig{Name: "b", Region: 8, Streams: 2, Size: 1 << 20, Gap: 2, Seed: seed}),
			)
		},
		"graph": func() Generator {
			return NewGraph(GraphConfig{
				Name: "g", Kernel: KernelPR, Kind: GraphPowerLaw,
				Region: 9, Vertices: 1 << 10, AvgDegree: 6, Seed: seed,
			})
		},
	}
}

// replay decodes every record of a frozen recording through a Replayer
// with no offset.
func replay(rec *Recording) []Record {
	rep := rec.Replayer(0)
	out := make([]Record, rec.Len())
	for i := range out {
		out[i] = rep.Next()
	}
	return out
}

// TestRecordStreamMatchesLive checks the record/replay contract per
// generator family: the replayed stream reproduces the live stream
// record-for-record, and the recording covers the budget minimally.
func TestRecordStreamMatchesLive(t *testing.T) {
	const budget = 30_000
	for name, mk := range recordFamilies(7) {
		t.Run(name, func(t *testing.T) {
			rec := RecordStream(mk(), budget)
			if !rec.Frozen() {
				t.Fatal("RecordStream must freeze the recording")
			}
			if rec.Instructions() < budget {
				t.Fatalf("recording covers %d instructions, want >= %d", rec.Instructions(), budget)
			}
			got := replay(rec)
			if last := got[len(got)-1]; rec.Instructions()-uint64(last.Gap)-1 >= budget {
				t.Fatal("recording is not minimal: dropping the last record still covers the budget")
			}
			live := mk()
			for i, g := range got {
				if want := live.Next(); g != want {
					t.Fatalf("record %d: replayed %+v, live %+v", i, g, want)
				}
			}
		})
	}
}

func TestReplayerOffsetAndReset(t *testing.T) {
	mk := recordFamilies(3)["workingset"]
	rec := RecordStream(mk(), 5_000)
	const off = mem.Addr(1) << 36
	rep := rec.Replayer(off)
	rep.Next()
	rep.Next()
	// Reset rewinds the previous PC and address with the cursor, so the
	// whole stream replays again from record 0.
	rep.Reset()
	for i, want := range replay(rec) {
		want.Addr += off
		if got := rep.Next(); got != want {
			t.Fatalf("offset replay %d after Reset: got %+v, want %+v", i, got, want)
		}
	}
	if rep.Name() != rec.Name() {
		t.Fatalf("replayer name %q, recording name %q", rep.Name(), rec.Name())
	}
}

func TestReplayerExhaustionPanics(t *testing.T) {
	rec := RecordStream(recordFamilies(1)["stream"](), 100)
	rep := rec.Replayer(0)
	for i := 0; i < rec.Len(); i++ {
		rep.Next()
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on exhausted replay")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "exhausted") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	rep.Next()
}

func TestRecordingFreezeDiscipline(t *testing.T) {
	rec := &Recording{name: "x"}
	rec.add(Record{PC: 1, Addr: 2, Gap: 3})
	rec.Freeze()
	t.Run("post-freeze add panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on post-freeze add")
			}
		}()
		rec.add(Record{})
	})
	t.Run("unfrozen replayer panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on Replayer over unfrozen recording")
			}
		}()
		(&Recording{name: "y"}).Replayer(0)
	})
	t.Run("zero budget panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on zero budget")
			}
		}()
		RecordStream(recordFamilies(1)["stream"](), 0)
	})
}

// TestRecordingRoundTrip re-records a recording's own replay at the same
// budget. RecordStream's stopping point depends only on the stream and the
// budget, so the copy must match the original in name, length, coverage
// and every record, read no record past the original's end, and come back
// frozen.
func TestRecordingRoundTrip(t *testing.T) {
	const budget = 20_000
	rec := RecordStream(recordFamilies(11)["pointerchase"](), budget)
	got := RecordStream(rec.Replayer(0), budget)
	if got.Name() != rec.Name() || got.Len() != rec.Len() || got.Instructions() != rec.Instructions() {
		t.Fatalf("round trip header mismatch: %q/%d/%d vs %q/%d/%d",
			got.Name(), got.Len(), got.Instructions(), rec.Name(), rec.Len(), rec.Instructions())
	}
	want := replay(rec)
	for i, g := range replay(got) {
		if g != want[i] {
			t.Fatalf("round trip record %d mismatch", i)
		}
	}
	if !got.Frozen() {
		t.Fatal("re-recorded recording must be frozen")
	}
}

// exhausts reports whether the replayer's next Next panics, that is,
// whether it has decoded exactly the recording's bytes.
func exhausts(rep *Replayer) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	rep.Next()
	return false
}

// roundTrips adds the records to a fresh recording and checks that it
// counts them and their instructions, that a Replayer with the given
// offset decodes every one (its address shifted by offset) and then
// nothing more, and that re-recording that replay at the recording's
// instruction count decodes to the same records.
func roundTrips(want []Record, offset mem.Addr) bool {
	rec := &Recording{name: "prop"}
	var instrs uint64
	for _, w := range want {
		rec.add(w)
		instrs += uint64(w.Gap) + 1
	}
	rec.Freeze()
	if rec.Len() != len(want) || rec.Instructions() != instrs {
		return false
	}
	rep := rec.Replayer(offset)
	for _, w := range want {
		w.Addr += offset
		if rep.Next() != w {
			return false
		}
	}
	if !exhausts(rep) {
		return false
	}
	if len(want) == 0 {
		return true
	}
	got := RecordStream(rec.Replayer(0), mem.Instr(instrs))
	if got.Len() != len(want) || got.Instructions() != instrs {
		return false
	}
	for i, g := range replay(got) {
		if g != want[i] {
			return false
		}
	}
	return true
}

// TestRecordingRoundTripProperty round-trips records through a Recording:
// every PC, address, flag pair and gap in [0, 255] that add stores comes
// back unchanged from a Replayer (shifted by its offset) and from
// re-recording that replay. Fixed cases cover the codec's edges: PCs and
// addresses that jump between 0, the signed extremes and math.MaxUint64 in
// both directions (deltas of ±1, ±math.MaxInt64 and math.MinInt64, whose
// zigzag forms need ten varint bytes), gap 255 with both flags set (a
// two-byte head), and recordings of no and of one record.
func TestRecordingRoundTripProperty(t *testing.T) {
	jumps := []uint64{
		0, math.MaxUint64, 0, 1 << 63, 0, math.MaxInt64,
		math.MaxUint64, 1 << 63, math.MaxInt64, 0, math.MaxUint64,
	}
	var edges []Record
	for i, v := range jumps {
		edges = append(edges, Record{
			PC:        mem.PCOf(v),
			Addr:      mem.AddrOf(jumps[len(jumps)-1-i]),
			Write:     i&1 != 0,
			Dependent: i&2 != 0,
			Gap:       uint8(i * 51),
		})
	}
	full := Record{PC: 0x400000, Addr: 0x7fff_0040, Write: true, Dependent: true, Gap: 255}
	for name, c := range map[string]struct {
		recs   []Record
		offset mem.Addr
	}{
		"empty":                 {nil, 0},
		"one record":            {[]Record{{PC: 0x400010, Addr: 0x1000, Gap: 2}}, 64},
		"extreme jumps":         {edges, 0},
		"extreme jumps, offset": {edges, 1 << 63},
		"gap 255, both flags":   {[]Record{full, full, {PC: 1, Addr: 2}, full}, 0},
	} {
		if !roundTrips(c.recs, c.offset) {
			t.Errorf("%s: records did not round-trip", name)
		}
	}

	f := func(pcs []uint64, flags []uint8, offset uint64) bool {
		want := make([]Record, len(pcs))
		for i, pc := range pcs {
			var fl uint8
			if i < len(flags) {
				fl = flags[i]
			}
			want[i] = Record{
				PC:        mem.PCOf(pc),
				Addr:      mem.AddrOf(pc * 3),
				Write:     fl&1 != 0,
				Dependent: fl&2 != 0,
				Gap:       fl ^ uint8(pc),
			}
		}
		return roundTrips(want, mem.AddrOf(offset))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRecordingFootprint holds the encoding to its purpose, a recording
// small enough to keep many long windows in memory: a frozen recording of
// every generator family keeps at most 8 bytes of buffer per record.
// Parallel PC, address, flag and gap columns took 18, plus their
// pre-sizing slack.
func TestRecordingFootprint(t *testing.T) {
	const budget = 100_000
	for name, mk := range recordFamilies(5) {
		rec := RecordStream(mk(), budget)
		per := float64(cap(rec.buf)) / float64(rec.Len())
		t.Logf("%s: %d records, %.2f bytes per record", name, rec.Len(), per)
		if per > 8 {
			t.Errorf("%s: %.2f bytes of buffer per record, want <= 8", name, per)
		}
	}
}
