package chrome

import "fmt"

// Overhead reports the hardware storage cost of a CHROME configuration,
// reproducing Table III of the paper. All quantities are in bits unless
// the field name says otherwise.
type Overhead struct {
	// QTableBits is the Q-table storage: features × SubTables sub-tables ×
	// 2^SubTableBits entries × 16 bits.
	QTableBits uint64
	// EQBits is the evaluation-queue storage: queues × depth × EQEntryBits.
	EQBits uint64
	// MetadataBits is the per-LLC-line EPV storage (2 bits per block).
	MetadataBits uint64
}

// EQEntryBits is the per-entry EQ cost from Table III: state 33 bits,
// action 2, reward 6, hashed address 16, trigger 1 = 58 bits.
const EQEntryBits = 58

// ComputeOverhead evaluates Table III for a configuration and LLC capacity.
func ComputeOverhead(cfg Config, llcBytes uint64) Overhead {
	features := len(cfg.StateFeatures)
	blocks := llcBytes / 64
	return Overhead{
		QTableBits:   uint64(features) * SubTables * (1 << SubTableBits) * 16,
		EQBits:       uint64(cfg.SampledSets) * uint64(cfg.EQDepth) * EQEntryBits,
		MetadataBits: blocks * 2,
	}
}

// TotalKB returns the total overhead in kilobytes (1 KB = 1024 bytes).
func (o Overhead) TotalKB() float64 {
	return float64(o.QTableBits+o.EQBits+o.MetadataBits) / 8 / 1024
}

// QTableKB returns the Q-table overhead in KB.
func (o Overhead) QTableKB() float64 { return float64(o.QTableBits) / 8 / 1024 }

// EQKB returns the EQ overhead in KB.
func (o Overhead) EQKB() float64 { return float64(o.EQBits) / 8 / 1024 }

// MetadataKB returns the EPV metadata overhead in KB.
func (o Overhead) MetadataKB() float64 { return float64(o.MetadataBits) / 8 / 1024 }

// String formats the overhead as a Table III-style summary.
func (o Overhead) String() string {
	return fmt.Sprintf("Q-Table %.1fKB + EQ %.1fKB + Metadata %.1fKB = %.1fKB",
		o.QTableKB(), o.EQKB(), o.MetadataKB(), o.TotalKB())
}

// SchemeOverheadKB lists the storage overheads of the compared schemes for
// the paper's 4-core 12MB LLC configuration (Table IV). CHROME's entry is
// computed; the baselines' are the figures reported by their papers.
func SchemeOverheadKB() map[string]float64 {
	chromeKB := ComputeOverhead(DefaultConfig(), 12<<20).TotalKB()
	return map[string]float64{
		"Hawkeye":    146,
		"Glider":     254,
		"Mockingjay": 170.6,
		"CARE":       130.5,
		"CHROME":     chromeKB,
	}
}
