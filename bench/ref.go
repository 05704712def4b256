package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"chrome/internal/cache"
	"chrome/internal/experiments"
	"chrome/internal/sim"
)

// cell is one simulated mix's outputs, exactly: IPC as float bits, the LLC
// counters, DRAM traffic and retired instructions.
type cell struct {
	Mix               string      `json:"mix"`
	IPCBits           []uint64    `json:"ipc_bits"`
	LLC               cache.Stats `json:"llc"`
	DRAMReads         uint64      `json:"dram_reads"`
	DRAMWrites        uint64      `json:"dram_writes"`
	TotalInstructions uint64      `json:"total_instructions"`
}

func cellOf(mix string, r sim.Result) cell {
	c := cell{
		Mix:               mix,
		LLC:               r.LLC,
		DRAMReads:         r.DRAMReads,
		DRAMWrites:        r.DRAMWrites,
		TotalInstructions: r.TotalInstructions.Uint64(),
	}
	for _, ipc := range r.IPC {
		c.IPCBits = append(c.IPCBits, math.Float64bits(ipc))
	}
	return c
}

func (c cell) equal(o cell) bool {
	return c.Mix == o.Mix && slices.Equal(c.IPCBits, o.IPCBits) && c.LLC == o.LLC &&
		c.DRAMReads == o.DRAMReads && c.DRAMWrites == o.DRAMWrites &&
		c.TotalInstructions == o.TotalInstructions
}

// invariants returns the conservation laws a cell breaks, whatever the
// seed: every LLC miss that is not a writeback is either filled or
// bypassed, every eviction makes room for a fill, each core retires its
// whole budget, and no core beats the commit width.
func (c cell) invariants(perCore uint64, width int) []string {
	var bad []string
	s := c.LLC
	if s.Fills+s.Bypasses != s.DemandLoadMisses+s.DemandStoreMisses+s.PrefetchMisses {
		bad = append(bad, "LLC fills+bypasses != misses")
	}
	if s.Evictions > s.Fills {
		bad = append(bad, "LLC evictions > fills")
	}
	if c.TotalInstructions < perCore*uint64(len(c.IPCBits)) {
		bad = append(bad, "retired fewer instructions than the budget")
	}
	for _, b := range c.IPCBits {
		if ipc := math.Float64frombits(b); !(ipc > 0 && ipc <= float64(width)) {
			bad = append(bad, "IPC "+strconv.FormatFloat(ipc, 'g', -1, 64)+" outside (0, width]")
		}
	}
	return bad
}

// reference is one seed's pinned outputs: the cells of each simulator
// workload and the SHA-256 of each figure report the runner prints.
type reference struct {
	Seed    uint64                       `json:"seed"`
	Cells   map[string][]cell            `json:"cells"`
	Digests map[string]map[string]string `json:"digests"`
}

// refDir holds the pinned references, relative to the repository root the
// benchmark runs from.
const refDir = "bench/testdata"

func refPath(dir string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ref-seed%d.json", seed))
}

// loadRef returns the seed's pinned reference, or nil when none is pinned.
func loadRef(dir string, seed uint64) (*reference, error) {
	b, err := os.ReadFile(refPath(dir, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var r reference
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("reference %s: %w", refPath(dir, seed), err)
	}
	return &r, nil
}

// updateRef rewrites one workload's section of the seed's reference file.
func updateRef(dir string, seed uint64, edit func(*reference)) error {
	r, err := loadRef(dir, seed)
	if err != nil {
		return err
	}
	if r == nil {
		r = &reference{Seed: seed}
	}
	if r.Cells == nil {
		r.Cells = map[string][]cell{}
	}
	if r.Digests == nil {
		r.Digests = map[string]map[string]string{}
	}
	edit(r)
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(refPath(dir, seed), append(b, '\n'), 0o644)
}

// checkCells compares a repetition's cells with the cells expected of it,
// failing each cell that differs.
func checkCells(l *ledger, what string, got, want []cell) {
	for i, c := range got {
		if i >= len(want) || !c.equal(want[i]) {
			l.fail("%s: cell %d (%s) differs", what, i, c.Mix)
		}
	}
}

// reportDigests hashes each report's table CSV and summary.
func reportDigests(reps []experiments.Report) map[string]string {
	out := map[string]string{}
	for _, r := range reps {
		h := sha256.New()
		h.Write([]byte(r.Table.CSV()))
		keys := make([]string, 0, len(r.Summary))
		for k := range r.Summary {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(r.Summary[k], 'g', -1, 64))
		}
		out[r.ID] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}
