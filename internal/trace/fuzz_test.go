package trace

import (
	"bytes"
	"errors"
	"testing"

	"chrome/internal/mem"
)

// seedRecordingBytes serializes a small valid recording for the fuzz seed
// corpus, so mutation starts from inputs that pass the header checks. gap
// sets record i's gap.
func seedRecordingBytes(t testing.TB, name string, gap func(i int) uint8) []byte {
	t.Helper()
	rec := &Recording{name: name}
	for i := 0; i < 8; i++ {
		rec.add(Record{
			PC:        mem.PCOf(0x400000 + uint64(i)*4),
			Addr:      mem.AddrOf(uint64(i) * 64),
			Write:     i%3 == 0,
			Dependent: i%5 == 0,
			Gap:       gap(i),
		})
	}
	rec.Freeze()
	var buf bytes.Buffer
	if err := WriteRecording(&buf, rec); err != nil {
		t.Fatalf("writing seed recording: %v", err)
	}
	return buf.Bytes()
}

// FuzzReadRecording checks the CHRC reader's contract on arbitrary bytes:
// every malformed input yields an error wrapping ErrBadTrace (never a
// panic, never a bare error), and every accepted input round-trips through
// WriteRecording to an equivalent recording. The experiments runner trusts
// this: a stale or corrupted -tracedir file must fail loudly instead of
// silently perturbing results (DESIGN.md §8).
func FuzzReadRecording(f *testing.F) {
	// Two seed recordings with equal-length names, so the structural
	// offsets below hold for both: one whose gap deltas each encode to a
	// single varint byte, and one whose 0 <-> 255 swings need two.
	for _, seed := range []struct {
		name string
		gap  func(i int) uint8
	}{
		{"fuzz-seed", func(i int) uint8 { return uint8(i * 7) }},
		{"fuzz-wide", func(i int) uint8 { return uint8(255 * (i % 2)) }},
	} {
		valid := seedRecordingBytes(f, seed.name, seed.gap)
		f.Add(valid)
		// Truncations at every structural boundary: mid-magic, mid-header,
		// mid-name, mid-counts, mid-columns.
		for _, cut := range []int{0, 3, 5, 9, 12, 19, 27, 34, 42, len(valid) - 1} {
			if cut >= 0 && cut < len(valid) {
				f.Add(append([]byte(nil), valid[:cut]...))
			}
		}
		// Single-byte corruptions of the magic, version, counts, and
		// checksum.
		for _, flip := range []int{0, 4, 20, 28, 36} {
			mut := append([]byte(nil), valid...)
			mut[flip] ^= 0xff
			f.Add(mut)
		}
		// Corruptions of the gap column tail: the delta stream and its
		// length prefix.
		for _, flip := range []int{len(valid) - 1, len(valid) - 5, len(valid) - 9} {
			if flip >= 0 {
				mut := append([]byte(nil), valid...)
				mut[flip] ^= 0xff
				f.Add(mut)
			}
		}
		// A forged header claiming 2^60 records with no data behind it:
		// must fail as truncation, not attempt the allocation.
		forged := append([]byte(nil), valid[:19]...)       // header + name
		forged = append(forged, 0, 0, 0, 0, 0, 0, 0, 0x10) // count = 1<<60
		forged = append(forged, 0, 0, 0, 0, 0, 0, 0, 0x10) // instrs = 1<<60
		forged = append(forged, 0, 0, 0, 0, 0, 0, 0, 0)    // checksum
		f.Add(forged)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadRecording(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("ReadRecording error does not wrap ErrBadTrace: %v", err)
			}
			return
		}
		if !rec.Frozen() {
			t.Fatal("ReadRecording returned an unfrozen recording")
		}
		var out bytes.Buffer
		if err := WriteRecording(&out, rec); err != nil {
			t.Fatalf("re-serializing accepted recording: %v", err)
		}
		rec2, err := ReadRecording(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-reading re-serialized recording: %v", err)
		}
		if rec2.Name() != rec.Name() || rec2.Len() != rec.Len() ||
			rec2.Instructions() != rec.Instructions() || rec2.Checksum() != rec.Checksum() {
			t.Fatalf("round-trip mismatch: %q/%d/%d/%x vs %q/%d/%d/%x",
				rec.Name(), rec.Len(), rec.Instructions(), rec.Checksum(),
				rec2.Name(), rec2.Len(), rec2.Instructions(), rec2.Checksum())
		}
	})
}
