package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// On-disk recording format (DESIGN.md §8): a versioned header followed by
// the four columns, so FullScale suite re-runs can skip generation
// entirely (cmd/traces records, inspects and verifies these files;
// cmd/experiments -tracedir persists and reuses them transparently;
// cmd/chromesim -trace replays one on every core).
//
//	magic    "CHRC"                     4 bytes
//	version  u8                         1 byte
//	reserved                            3 bytes
//	nameLen  u16  LE                    2 bytes
//	name     nameLen bytes
//	count    u64  LE  records
//	instrs   u64  LE  Σ Gap+1
//	checksum u64  LE  FNV-1a over the columns (Recording.Checksum)
//	pcs      count x u64 LE
//	addrs    count x u64 LE
//	kinds    count x u8
//	gapLen   u64  LE
//	gaps     gapLen bytes of zigzag-varint deltas between consecutive
//	         gap values
//
// Everything after the header is raw column data, so a load is a handful of
// bulk reads. The checksum (and a recomputed instrs) is validated on load:
// a truncated, corrupted, or stale file yields ErrBadTrace, never a
// silently different experiment input.
//
// The gap column is stored as zigzag-varint deltas: workload gaps cluster
// around a few values, so the delta stream compresses under any downstream
// file compression far better than the raw column, while a delta that
// walks outside [0, 255] or trailing bytes after the final delta are
// rejected as corruption.

var recordingMagic = [4]byte{'C', 'H', 'R', 'C'}

// recordingVersion is the one format version the writer emits and the
// reader accepts.
const recordingVersion = 2

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace stream")

// WriteRecording serializes a frozen recording to w.
func WriteRecording(w io.Writer, rec *Recording) error {
	if !rec.frozen {
		panic("trace: WriteRecording of unfrozen recording " + rec.name)
	}
	if len(rec.name) > 0xffff {
		return fmt.Errorf("%w: recording name too long (%d bytes)", ErrBadTrace, len(rec.name))
	}
	bw := bufio.NewWriter(w)
	header := make([]byte, 10)
	copy(header, recordingMagic[:])
	header[4] = recordingVersion
	binary.LittleEndian.PutUint16(header[8:], uint16(len(rec.name)))
	if _, err := bw.Write(header); err != nil {
		return err
	}
	if _, err := bw.WriteString(rec.name); err != nil {
		return err
	}
	var u64 [8]byte
	for _, v := range []uint64{uint64(len(rec.pcs)), rec.instrs, rec.Checksum()} {
		binary.LittleEndian.PutUint64(u64[:], v)
		if _, err := bw.Write(u64[:]); err != nil {
			return err
		}
	}
	for _, col := range [][]uint64{rec.pcs, rec.addrs} {
		for _, v := range col {
			binary.LittleEndian.PutUint64(u64[:], v)
			if _, err := bw.Write(u64[:]); err != nil {
				return err
			}
		}
	}
	if _, err := bw.Write(rec.kinds); err != nil {
		return err
	}
	enc := encodeGapDeltas(rec.gaps)
	binary.LittleEndian.PutUint64(u64[:], uint64(len(enc)))
	if _, err := bw.Write(u64[:]); err != nil {
		return err
	}
	if _, err := bw.Write(enc); err != nil {
		return err
	}
	return bw.Flush()
}

// encodeGapDeltas zigzag-varint encodes the differences between consecutive
// gap values (the first delta is taken from zero). Gaps fit a byte, so each
// delta is in [-255, 255] and encodes to at most two bytes.
func encodeGapDeltas(gaps []uint8) []byte {
	out := make([]byte, 0, len(gaps))
	var tmp [binary.MaxVarintLen16]byte
	prev := int64(0)
	for _, g := range gaps {
		n := binary.PutVarint(tmp[:], int64(g)-prev)
		out = append(out, tmp[:n]...)
		prev = int64(g)
	}
	return out
}

// decodeGapDeltas reverses encodeGapDeltas, validating that every delta
// stays a decodable varint, that the reconstructed walk stays within a
// byte, and that no bytes trail the final delta.
func decodeGapDeltas(enc []byte, count uint64) ([]uint8, error) {
	gaps := make([]uint8, 0, min(count, recordingChunk))
	prev, pos := int64(0), 0
	for i := uint64(0); i < count; i++ {
		d, n := binary.Varint(enc[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("%w: truncated gap delta %d of %d", ErrBadTrace, i, count)
		}
		pos += n
		v := prev + d
		if v < 0 || v > 255 {
			return nil, fmt.Errorf("%w: gap delta %d walks to %d, outside [0, 255]", ErrBadTrace, i, v)
		}
		gaps = append(gaps, uint8(v))
		prev = v
	}
	if pos != len(enc) {
		return nil, fmt.Errorf("%w: %d trailing bytes after gap deltas", ErrBadTrace, len(enc)-pos)
	}
	return gaps, nil
}

// ReadRecording deserializes and validates a recording; the result is
// frozen. Malformed input (bad magic/version, truncation, checksum or
// instruction-count mismatch) yields an error wrapping ErrBadTrace.
func ReadRecording(r io.Reader) (*Recording, error) {
	br := bufio.NewReader(r)
	header := make([]byte, 10)
	if _, err := io.ReadFull(br, header); err != nil {
		return nil, fmt.Errorf("%w: short recording header: %v", ErrBadTrace, err)
	}
	if [4]byte(header[:4]) != recordingMagic {
		return nil, fmt.Errorf("%w: bad recording magic %q", ErrBadTrace, header[:4])
	}
	if header[4] != recordingVersion {
		return nil, fmt.Errorf("%w: unsupported recording version %d", ErrBadTrace, header[4])
	}
	name := make([]byte, binary.LittleEndian.Uint16(header[8:]))
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("%w: truncated recording name: %v", ErrBadTrace, err)
	}
	var u64 [8]byte
	readU64 := func(what string) (uint64, error) {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return 0, fmt.Errorf("%w: truncated %s: %v", ErrBadTrace, what, err)
		}
		return binary.LittleEndian.Uint64(u64[:]), nil
	}
	count, err := readU64("record count")
	if err != nil {
		return nil, err
	}
	instrs, err := readU64("instruction count")
	if err != nil {
		return nil, err
	}
	sum, err := readU64("checksum")
	if err != nil {
		return nil, err
	}
	// A record retires at least one instruction, so count > instrs means a
	// corrupted header.
	if count > instrs {
		return nil, fmt.Errorf("%w: %d records cannot cover %d instructions", ErrBadTrace, count, instrs)
	}
	rec := &Recording{name: string(name)}
	if rec.pcs, err = readU64Column(br, count, "pcs column"); err != nil {
		return nil, err
	}
	if rec.addrs, err = readU64Column(br, count, "addrs column"); err != nil {
		return nil, err
	}
	if rec.kinds, err = readU8Column(br, count, "kinds column"); err != nil {
		return nil, err
	}
	gapLen, err := readU64("gap column length")
	if err != nil {
		return nil, err
	}
	// Each delta encodes to one or two bytes, so anything outside
	// [count, 2*count] is a forged length.
	if gapLen < count || gapLen > 2*count {
		return nil, fmt.Errorf("%w: gap column of %d bytes cannot encode %d deltas", ErrBadTrace, gapLen, count)
	}
	enc, err := readU8Column(br, gapLen, "gaps column")
	if err != nil {
		return nil, err
	}
	if rec.gaps, err = decodeGapDeltas(enc, count); err != nil {
		return nil, err
	}
	for _, g := range rec.gaps {
		rec.instrs += uint64(g) + 1
	}
	if rec.instrs != instrs {
		return nil, fmt.Errorf("%w: recording covers %d instructions, header says %d", ErrBadTrace, rec.instrs, instrs)
	}
	if got := rec.Checksum(); got != sum {
		return nil, fmt.Errorf("%w: recording checksum %016x, want %016x", ErrBadTrace, got, sum)
	}
	rec.Freeze()
	return rec, nil
}

// recordingChunk caps how many records each column read allocates at once.
// The header's count field is untrusted input: growing the columns chunk by
// chunk lets a corrupted count hit the truncation error after at most one
// spare chunk, instead of handing a forged 2^60 straight to make.
const recordingChunk = 1 << 16

// readU64Column reads count little-endian u64s, allocating progressively.
func readU64Column(br *bufio.Reader, count uint64, what string) ([]uint64, error) {
	out := make([]uint64, 0, min(count, recordingChunk))
	var u64 [8]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated %s: %v", ErrBadTrace, what, err)
		}
		out = append(out, binary.LittleEndian.Uint64(u64[:]))
	}
	return out, nil
}

// readU8Column reads count bytes, allocating progressively.
func readU8Column(br *bufio.Reader, count uint64, what string) ([]uint8, error) {
	out := make([]uint8, 0, min(count, recordingChunk))
	for remaining := count; remaining > 0; {
		n := min(remaining, recordingChunk)
		chunk := make([]uint8, n)
		if _, err := io.ReadFull(br, chunk); err != nil {
			return nil, fmt.Errorf("%w: truncated %s: %v", ErrBadTrace, what, err)
		}
		out = append(out, chunk...)
		remaining -= n
	}
	return out, nil
}

// Ensure the replayer stays a Generator (the property that lets sim/cpu
// consume recordings unchanged).
var _ Generator = (*Replayer)(nil)
