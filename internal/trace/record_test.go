package trace

import (
	"bytes"
	"errors"
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

func TestRecordingRoundTrip(t *testing.T) {
	rec := RecordStream(recordFamilies(11)["pointerchase"](), 20_000)
	var buf bytes.Buffer
	if err := WriteRecording(&buf, rec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecording(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != rec.Name() || got.Len() != rec.Len() || got.Instructions() != rec.Instructions() {
		t.Fatalf("round trip header mismatch: %q/%d/%d vs %q/%d/%d",
			got.Name(), got.Len(), got.Instructions(), rec.Name(), rec.Len(), rec.Instructions())
	}
	if got.Checksum() != rec.Checksum() {
		t.Fatal("round trip checksum mismatch")
	}
	for i := 0; i < rec.Len(); i++ {
		if got.At(i) != rec.At(i) {
			t.Fatalf("round trip record %d mismatch", i)
		}
	}
	if !got.Frozen() {
		t.Fatal("loaded recording must be frozen")
	}
}

// TestRecordingRoundTripProperty round-trips arbitrary record columns
// through the CHRC format: every PC, address, flag pair and gap in
// [0, 255] (including the two-byte gap deltas) survives a write and read,
// and so does a recording with no records.
func TestRecordingRoundTripProperty(t *testing.T) {
	f := func(pcs []uint64, flags []uint8) bool {
		rec := &Recording{name: "prop"}
		for i, pc := range pcs {
			var fl uint8
			if i < len(flags) {
				fl = flags[i]
			}
			rec.add(Record{
				PC:        mem.PCOf(pc),
				Addr:      mem.Addr(pc * 3),
				Write:     fl&1 != 0,
				Dependent: fl&2 != 0,
				Gap:       fl ^ uint8(pc),
			})
		}
		rec.Freeze()
		var buf bytes.Buffer
		if err := WriteRecording(&buf, rec); err != nil {
			return false
		}
		got, err := ReadRecording(&buf)
		if err != nil || got.Len() != rec.Len() || got.Instructions() != rec.Instructions() {
			return false
		}
		for i := 0; i < rec.Len(); i++ {
			if got.At(i) != rec.At(i) {
				return false
			}
		}
		return true
	}
	if !f(nil, nil) {
		t.Error("empty recording did not round-trip")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReadRecordingRejectsCorruption(t *testing.T) {
	rec := RecordStream(recordFamilies(5)["stream"](), 5_000)
	var buf bytes.Buffer
	if err := WriteRecording(&buf, rec); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string]func([]byte) []byte{
		"flipped column byte": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0xff // last gap byte
			return c
		},
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bad magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		},
		"bad version": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = 99
			return c
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadRecording(bytes.NewReader(corrupt(good)))
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("want ErrBadTrace, got %v", err)
			}
		})
	}
}
