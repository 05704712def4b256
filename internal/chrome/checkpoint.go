package chrome

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Q-table checkpointing: WriteTo/ReadFrom serialize the learned sub-table
// partials so a trained agent can be warm-started (e.g. to skip the online
// learning ramp when re-running a workload, or to inspect a trained policy
// offline). The format is versioned and self-describing enough to reject
// checkpoints from mismatched configurations.

var checkpointMagic = [4]byte{'C', 'H', 'Q', 'T'}

// checkpointVersion is the current checkpoint format version.
const checkpointVersion = 1

// ErrBadCheckpoint reports a malformed or incompatible checkpoint stream.
var ErrBadCheckpoint = errors.New("chrome: bad Q-table checkpoint")

// checkpointHeader opens a checkpoint: the magic, the format version and
// the table's shape (features, SubTables, SubTableBits). It is followed by
// the saving run's SARSA update count and then every partial, in the
// table's (feature, sub-table, slot, action) order.
type checkpointHeader struct {
	Magic     [4]byte
	Version   uint8
	Features  uint8
	SubTables uint8
	Bits      uint8
}

func (qt *QTable) header() checkpointHeader {
	return checkpointHeader{checkpointMagic, checkpointVersion, uint8(qt.n), SubTables, SubTableBits}
}

// WriteTo serializes the Q-table's learned state. It implements
// io.WriterTo.
func (qt *QTable) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for _, data := range []any{qt.header(), qt.updates, qt.partials} {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			return n, err
		}
		n += int64(binary.Size(data))
	}
	return n, bw.Flush()
}

// ReadFrom restores a Q-table's learned partials from a checkpoint written
// by WriteTo. The checkpoint's shape must be the receiving table's. The
// saved update count is read past, not restored: Updates and the agent's
// UPKSA count the loading run alone. On error the table is unchanged. It
// implements io.ReaderFrom.
func (qt *QTable) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	var n int64
	read := func(data any) error {
		if err := binary.Read(br, binary.LittleEndian, data); err != nil {
			return err
		}
		n += int64(binary.Size(data))
		return nil
	}
	var h checkpointHeader
	if err := read(&h); err != nil {
		return n, fmt.Errorf("%w: short header: %v", ErrBadCheckpoint, err)
	}
	want := qt.header()
	switch {
	case h.Magic != want.Magic:
		return n, fmt.Errorf("%w: bad magic %q", ErrBadCheckpoint, h.Magic[:])
	case h.Version != want.Version:
		return n, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, h.Version)
	case h != want:
		return n, fmt.Errorf("%w: checkpoint shape %dx%dx2^%d does not match table %dx%dx2^%d",
			ErrBadCheckpoint, h.Features, h.SubTables, h.Bits, want.Features, want.SubTables, want.Bits)
	}
	// Decode into a buffer of its own and copy into the table only once
	// the whole checkpoint has been read, so a failed load leaves the
	// table as it was.
	if err := read(new(uint64)); err != nil {
		return n, fmt.Errorf("%w: truncated: %v", ErrBadCheckpoint, err)
	}
	partials := make([]int16, len(qt.partials))
	if err := read(partials); err != nil {
		return n, fmt.Errorf("%w: truncated partials: %v", ErrBadCheckpoint, err)
	}
	copy(qt.partials, partials)
	return n, nil
}

// SaveCheckpoint serializes the agent's learned Q-table.
func (a *Agent) SaveCheckpoint(w io.Writer) error {
	_, err := a.qt.WriteTo(w)
	return err
}

// LoadCheckpoint warm-starts the agent from a saved Q-table. The agent's
// feature count must match the checkpoint's. A checkpoint that fails to
// load leaves the agent unchanged.
func (a *Agent) LoadCheckpoint(r io.Reader) error {
	_, err := a.qt.ReadFrom(r)
	return err
}
