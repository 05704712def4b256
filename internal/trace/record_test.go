package trace

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

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
			return NewStride(StrideConfig{Name: "st", Region: 2, Streams: 3, Size: 1 << 20, Gap: 2, Writes: 1})
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
				NewStride(StrideConfig{Name: "b", Region: 8, Streams: 2, Size: 1 << 20, Gap: 2}),
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

// roundTrip adds the records to a fresh recording and checks that it
// counts them and their instructions; that a Replayer with the given
// offset decodes the first resetAt of them (mod len+1), is Reset, then
// decodes every one (its address shifted by offset) and nothing more; and
// that re-recording a replay at the recording's instruction count decodes
// to the same records. It returns the frozen recording, or an error
// naming the first check that failed.
func roundTrip(want []Record, offset mem.Addr, resetAt int) (*Recording, error) {
	rec := &Recording{name: "prop"}
	var instrs uint64
	for _, w := range want {
		rec.add(w)
		instrs += uint64(w.Gap) + 1
	}
	rec.Freeze()
	if rec.Len() != len(want) || rec.Instructions() != instrs {
		return rec, fmt.Errorf("recording counts %d records and %d instructions, want %d and %d",
			rec.Len(), rec.Instructions(), len(want), instrs)
	}
	rep := rec.Replayer(offset)
	resetAt %= len(want) + 1
	for pass, n := range []int{resetAt, len(want)} {
		if pass > 0 {
			rep.Reset()
		}
		for i, w := range want[:n] {
			w.Addr += offset
			if got := rep.Next(); got != w {
				return rec, fmt.Errorf("pass %d, record %d: replayed %+v, want %+v", pass, i, got, w)
			}
		}
	}
	if !exhausts(rep) {
		return rec, errors.New("replayer not exhausted after the last record")
	}
	if len(want) == 0 {
		return rec, nil
	}
	got := RecordStream(rec.Replayer(0), mem.Instr(instrs))
	if got.Len() != len(want) || got.Instructions() != instrs {
		return rec, fmt.Errorf("re-recording counts %d records and %d instructions, want %d and %d",
			got.Len(), got.Instructions(), len(want), instrs)
	}
	for i, g := range replay(got) {
		if g != want[i] {
			return rec, fmt.Errorf("re-recorded record %d: %+v, want %+v", i, g, want[i])
		}
	}
	return rec, nil
}

// strideRun returns n records of one PC whose addresses start at base and
// step by stride, wrapping modulo 2^64.
func strideRun(pc, base, stride uint64, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{PC: mem.PCOf(pc), Addr: mem.AddrOf(base + uint64(i)*stride), Gap: 1}
	}
	return recs
}

// interleave merges runs round-robin, one record of each in turn.
func interleave(runs ...[]Record) []Record {
	var out []Record
	for i := 0; ; i++ {
		more := false
		for _, r := range runs {
			if i < len(r) {
				out = append(out, r[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// TestRecordingRoundTripProperty round-trips records through a Recording:
// every PC, address, flag pair and gap in [0, 255] that add stores comes
// back unchanged from a Replayer (shifted by its offset), also after a
// Reset part-way through, and from re-recording that replay. Each fixed
// case covers one edge of the codec and checks, through holds, that its
// recording really takes that path.
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

	// Every gap and flag pair of one PC: 1,024 symbols, so codes past
	// the 64th symbol take two bytes.
	var symbols []Record
	for k := 0; k < 1024; k++ {
		symbols = append(symbols, Record{PC: 0x400000, Addr: mem.AddrOf(uint64(k) * 64), Write: k&1 != 0, Dependent: k&2 != 0, Gap: uint8(k >> 2)})
	}
	// 200 PCs, three rounds each: the PC table grows from 64 slots to
	// 512, and later rounds find every PC again.
	var manyPCs []Record
	for round := 0; round < 3; round++ {
		for k := uint64(0); k < 200; k++ {
			manyPCs = append(manyPCs, Record{PC: mem.PCOf(0x500000 + k*8), Addr: mem.AddrOf(k<<20 + uint64(round)*64), Gap: 2})
		}
	}
	// A second PC starts where the first PC's run left off: its first
	// record is predicted from the first PC's last address, 64 bytes
	// back, and the stride that prediction leaves makes every later
	// record of it exact.
	later := append(strideRun(0x400100, 1<<40, 64, 8), strideRun(0x400200, 1<<40+8*64, 64, 8)...)

	for name, c := range map[string]struct {
		recs   []Record
		offset mem.Addr
		// holds reports whether the recording takes the case's path.
		holds func(*Recording) bool
	}{
		"empty":                 {nil, 0, nil},
		"one record":            {[]Record{{PC: 0x400010, Addr: 0x1000, Gap: 2}}, 64, nil},
		"extreme jumps":         {edges, 0, nil},
		"extreme jumps, offset": {edges, 1 << 63, nil},
		"gap 255, both flags":   {[]Record{full, full, {PC: 1, Addr: 2}, full}, 0, nil},
		"two-byte codes": {symbols, 0, func(r *Recording) bool {
			return len(r.syms) == 1024
		}},
		"PC table growth": {manyPCs, 0, func(r *Recording) bool {
			return r.pcs == 200
		}},
		// Strides of 2^63 and of -3 wrap past 2^64 and past zero.
		"stride wraps modulo 2^64": {interleave(
			strideRun(0x400300, 1<<62, 1<<63, 40),
			strideRun(0x400308, 5, math.MaxUint64-2, 40),
		), 0, func(r *Recording) bool {
			return exactCodes(r) >= 2*(40-2)
		}},
		// Every record after a PC's first two is exactly predicted and
		// takes one byte.
		"constant stride": {strideRun(0x400400, 0x10_0000, 64, 100), 0, func(r *Recording) bool {
			return exactCodes(r) == 98 && len(r.buf) < 100+20
		}},
		"first record after other PCs": {later, 0, func(r *Recording) bool {
			return exactCodes(r) == 6+7
		}},
		// roundTrip resets the replayer half-way, while both predictors
		// are mid-run.
		"Reset mid-stride": {interleave(
			strideRun(0x400500, 0x20_0000, 128, 50),
			strideRun(0x400508, 0x30_0000, 8, 50),
		), 1 << 40, func(r *Recording) bool {
			return exactCodes(r) == 96
		}},
	} {
		rec, err := roundTrip(c.recs, c.offset, len(c.recs)/2)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if c.holds != nil && !c.holds(rec) {
			t.Errorf("%s: the recording does not take the case's path (%d symbols, %d PCs, %d exact of %d records, %d bytes)",
				name, len(rec.syms), rec.pcs, exactCodes(rec), rec.Len(), len(rec.buf))
		}
	}

	f := func(pcs []uint64, flags []uint8, offset uint64, resetAt uint16) bool {
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
		_, err := roundTrip(want, mem.AddrOf(offset), int(resetAt))
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// exactCodes counts the records whose code says the address was exactly
// predicted.
func exactCodes(r *Recording) int {
	n := 0
	for i := 0; i < len(r.buf); {
		code, j := uvarint(r.buf, i)
		i = j
		if code&1 != 0 {
			n++
		} else {
			_, i = uvarint(r.buf, i)
		}
	}
	return n
}

// TestRecordingFootprint holds the encoding to its purpose, a recording
// small enough to keep many long windows in memory: a frozen recording of
// every generator family keeps at most 5 bytes per record, its buffer and
// symbol table together. The families whose every PC walks a constant
// stride take one byte, the code alone; random working-set draws take the
// most.
func TestRecordingFootprint(t *testing.T) {
	const budget = 100_000
	for name, mk := range recordFamilies(5) {
		rec := RecordStream(mk(), budget)
		bytes := cap(rec.buf) + cap(rec.syms)*int(unsafe.Sizeof(symbol{}))
		per := float64(bytes) / float64(rec.Len())
		t.Logf("%s: %d records, %d symbols, %.2f bytes per record", name, rec.Len(), len(rec.syms), per)
		if per > 5 {
			t.Errorf("%s: %.2f bytes per record, want <= 5", name, per)
		}
	}
}

// fuzzPCs are the PCs a fuzz record picks from unless it reads its own.
var fuzzPCs = [7]uint64{0, 1, 0x400000, 0x400008, 1 << 63, math.MaxInt64, math.MaxUint64}

// fuzzRecords turns arbitrary bytes into records. A record's first byte
// gives its flags (bits 0-1) and one of fuzzPCs (bits 2-4; 7 reads the
// next eight bytes as the PC), then how its address is made (bits 5-6):
// the PC's last address plus its last stride, that plus a signed step
// read from the next byte, the next eight bytes, or the previous record's
// address. Bit 7 reads the gap from the next byte; it is zero otherwise.
// Bytes read past the end are zero.
func fuzzRecords(data []byte) []Record {
	read := func(n int) uint64 {
		var x uint64
		for i := 0; i < n && len(data) > 0; i++ {
			x |= uint64(data[0]) << (8 * i)
			data = data[1:]
		}
		return x
	}
	type run struct{ last, stride uint64 }
	runs := map[uint64]run{}
	var out []Record
	var prev uint64
	for len(data) > 0 {
		ctl := byte(read(1))
		var pc uint64
		if slot := ctl >> 2 & 7; slot < 7 {
			pc = fuzzPCs[slot]
		} else {
			pc = read(8)
		}
		r := runs[pc]
		addr := r.last + r.stride
		switch ctl >> 5 & 3 {
		case 1:
			addr += uint64(int64(int8(read(1))))
		case 2:
			addr = read(8)
		case 3:
			addr = prev
		}
		var gap uint8
		if ctl&0x80 != 0 {
			gap = uint8(read(1))
		}
		out = append(out, Record{PC: mem.PCOf(pc), Addr: mem.AddrOf(addr), Write: ctl&1 != 0, Dependent: ctl&2 != 0, Gap: gap})
		runs[pc] = run{last: addr, stride: addr - r.last}
		prev = addr
	}
	return out
}

// FuzzRecordingRoundTrip round-trips the records fuzzRecords makes of
// arbitrary bytes: every record comes back unchanged from a Replayer at an
// arbitrary offset, the replayer is exhausted after the last one, a Reset
// at an arbitrary record replays the stream identically, and re-recording
// the replay gives the same records (roundTrip).
func FuzzRecordingRoundTrip(f *testing.F) {
	f.Add([]byte{0x08, 0x08, 0x08, 0x28, 0x10, 0x4c, 0x3f, 0x1c, 0x9c, 0xff}, uint64(0), uint16(3))
	f.Add([]byte{0x5c, 1, 2, 3, 4, 5, 6, 7, 8, 0x1c, 0x7c, 0x80, 0xff, 0x00}, uint64(1<<63), uint16(1))
	f.Add([]byte("stride, stride, stride"), uint64(64), uint16(10))
	f.Fuzz(func(t *testing.T, data []byte, offset uint64, resetAt uint16) {
		recs := fuzzRecords(data)
		if _, err := roundTrip(recs, mem.AddrOf(offset), int(resetAt)); err != nil {
			t.Fatal(err)
		}
	})
}
