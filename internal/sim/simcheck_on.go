//go:build simcheck

package sim

import "fmt"

// SimcheckEnabled reports whether the simulation sanitizer is compiled in.
const SimcheckEnabled = true

// mshrCheck carries the sanitizer's MSHR accounting: every acquire must be
// matched by exactly one commit, and committing must never push occupancy
// past the configured entry count. The zero value is ready to use.
type mshrCheck struct {
	acquired  uint64
	committed uint64
}

func (k *mshrCheck) noteAcquire() { k.acquired++ }

// noteCommit checks the exact occupancy, not the bound acquire reads.
func (m *mshr) noteCommit() {
	m.committed++
	if n := m.occupancy(); n > m.cap {
		panic(fmt.Sprintf("simcheck: MSHR occupancy %d exceeds capacity %d (commit without acquire back-pressure)",
			n, m.cap))
	}
	if m.committed > m.acquired {
		panic(fmt.Sprintf("simcheck: MSHR committed %d misses but acquired only %d",
			m.committed, m.acquired))
	}
}

// checkDrained panics unless every acquired entry was committed, i.e. the
// file logically drains to zero outstanding misses at end-of-run.
func (k *mshrCheck) checkDrained(name string) {
	if k.acquired != k.committed {
		panic(fmt.Sprintf("simcheck: %s leaked %d MSHR entries (%d acquired, %d committed)",
			name, k.acquired-k.committed, k.acquired, k.committed))
	}
}

// checkEndOfRun validates whole-system invariants after a run: every MSHR
// file must have drained.
func (s *System) checkEndOfRun() {
	for i, m := range s.l1m {
		m.checkDrained(fmt.Sprintf("L1 MSHR (core %d)", i))
	}
	for i, m := range s.l2m {
		m.checkDrained(fmt.Sprintf("L2 MSHR (core %d)", i))
	}
	s.llcm.checkDrained("LLC MSHR")
}
