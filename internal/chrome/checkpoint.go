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

// WriteTo serializes the Q-table's learned state. It implements
// io.WriterTo.
func (qt *QTable) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(data any) error {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			return err
		}
		n += int64(binary.Size(data))
		return nil
	}
	header := struct {
		Magic     [4]byte
		Version   uint8
		Features  uint8
		SubTables uint8
		Bits      uint8
	}{checkpointMagic, checkpointVersion, uint8(qt.n), uint8(qt.cfg.SubTables), uint8(qt.cfg.SubTableBits)}
	if err := write(header); err != nil {
		return n, err
	}
	if err := write(qt.updates); err != nil {
		return n, err
	}
	for f := 0; f < qt.n; f++ {
		for t := 0; t < qt.cfg.SubTables; t++ {
			if err := write(qt.partials[f][t]); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadFrom restores a Q-table's learned state from a checkpoint written by
// WriteTo. The receiving table's configuration (feature count, sub-tables,
// bits) must match the checkpoint's. On error the table is unchanged. It
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
	var header struct {
		Magic     [4]byte
		Version   uint8
		Features  uint8
		SubTables uint8
		Bits      uint8
	}
	if err := read(&header); err != nil {
		return n, fmt.Errorf("%w: short header: %v", ErrBadCheckpoint, err)
	}
	switch {
	case header.Magic != checkpointMagic:
		return n, fmt.Errorf("%w: bad magic %q", ErrBadCheckpoint, header.Magic[:])
	case header.Version != checkpointVersion:
		return n, fmt.Errorf("%w: unsupported version %d", ErrBadCheckpoint, header.Version)
	case int(header.Features) != qt.n,
		int(header.SubTables) != qt.cfg.SubTables,
		int(header.Bits) != qt.cfg.SubTableBits:
		return n, fmt.Errorf("%w: checkpoint shape %dx%dx2^%d does not match table %dx%dx2^%d",
			ErrBadCheckpoint, header.Features, header.SubTables, header.Bits,
			qt.n, qt.cfg.SubTables, qt.cfg.SubTableBits)
	}
	// Decode into a buffer of its own and copy into the table only once
	// the whole checkpoint has been read, so a failed load leaves the
	// table as it was.
	var updates uint64
	if err := read(&updates); err != nil {
		return n, fmt.Errorf("%w: truncated: %v", ErrBadCheckpoint, err)
	}
	entries := (1 << qt.cfg.SubTableBits) * NumActions
	partials := make([]int16, qt.n*qt.cfg.SubTables*entries)
	if err := read(partials); err != nil {
		return n, fmt.Errorf("%w: truncated partials: %v", ErrBadCheckpoint, err)
	}
	qt.updates = updates
	for f := 0; f < qt.n; f++ {
		for t := 0; t < qt.cfg.SubTables; t++ {
			partials = partials[copy(qt.partials[f][t], partials):]
		}
	}
	return n, nil
}

// SaveCheckpoint serializes the agent's learned Q-table.
func (a *Agent) SaveCheckpoint(w io.Writer) error {
	_, err := a.qt.WriteTo(w)
	return err
}

// LoadCheckpoint warm-starts the agent from a saved Q-table. The agent's
// configuration must match the checkpoint's table shape. A checkpoint that
// fails to load leaves the agent unchanged.
func (a *Agent) LoadCheckpoint(r io.Reader) error {
	_, err := a.qt.ReadFrom(r)
	return err
}
