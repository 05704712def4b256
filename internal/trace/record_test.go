package trace

import (
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

// TestRecordStreamMatchesLive checks the record/replay contract per
// generator family: the recorded columns reproduce the live stream
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
			last := rec.At(rec.Len() - 1)
			if rec.Instructions()-uint64(last.Gap)-1 >= budget {
				t.Fatal("recording is not minimal: dropping the last record still covers the budget")
			}
			live := mk()
			for i := 0; i < rec.Len(); i++ {
				if got, want := rec.At(i), live.Next(); got != want {
					t.Fatalf("record %d: recorded %+v, live %+v", i, got, want)
				}
			}
			// And the replayer view must agree with At().
			rep := rec.Replayer(0)
			live.Reset()
			for i := 0; i < rec.Len(); i++ {
				if got, want := rep.Next(), live.Next(); got != want {
					t.Fatalf("replay %d: got %+v, want %+v", i, got, want)
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
	first := rep.Next()
	if want := rec.At(0); first.Addr != want.Addr+off || first.PC != want.PC {
		t.Fatalf("offset replay: got %+v, base %+v", first, want)
	}
	rep.Next()
	rep.Reset()
	if again := rep.Next(); again != first {
		t.Fatalf("Reset must rewind: got %+v, want %+v", again, first)
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
	for i := 0; i < rec.Len(); i++ {
		if got.At(i) != rec.At(i) {
			t.Fatalf("round trip record %d mismatch", i)
		}
	}
	if !got.Frozen() {
		t.Fatal("re-recorded recording must be frozen")
	}
}

// TestRecordingRoundTripProperty round-trips arbitrary record columns
// through a Recording: every PC, address, flag pair and gap in [0, 255]
// that add stores comes back unchanged from At, from a Replayer (shifted
// by its offset) and from re-recording that replay at the recording's
// instruction count. A recording with no records covers no instructions.
func TestRecordingRoundTripProperty(t *testing.T) {
	f := func(pcs []uint64, flags []uint8, offset uint64) bool {
		rec := &Recording{name: "prop"}
		want := make([]Record, len(pcs))
		var instrs uint64
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
			rec.add(want[i])
			instrs += uint64(want[i].Gap) + 1
		}
		rec.Freeze()
		if rec.Len() != len(want) || rec.Instructions() != instrs {
			return false
		}
		off := mem.AddrOf(offset)
		rep := rec.Replayer(off)
		for i, w := range want {
			if rec.At(i) != w {
				return false
			}
			w.Addr += off
			if rep.Next() != w {
				return false
			}
		}
		if len(want) == 0 {
			return true
		}
		got := RecordStream(rec.Replayer(0), mem.Instr(instrs))
		if got.Len() != len(want) || got.Instructions() != instrs {
			return false
		}
		for i, w := range want {
			if got.At(i) != w {
				return false
			}
		}
		return true
	}
	if !f(nil, nil, 0) {
		t.Error("empty recording did not round-trip")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
