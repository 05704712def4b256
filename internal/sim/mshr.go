package sim

import "chrome/internal/mem"

// mshr models a miss-status-holding-register file: it bounds the number of
// outstanding misses at a level. acquire returns the possibly-delayed start
// cycle; commit registers the completion time.
//
// An acquire prunes every entry ≤ its start and, while the file is full,
// waits for the earliest completion and prunes at it, so an entry is
// outstanding iff it exceeds every cycle a prune has used since its commit.
// A prune at p drops c iff c ≤ p, so the file applies that rule in batches,
// judging each entry once against the largest point since its commit:
// every start cycle, stall count and occupancy is the binary heap's that it
// replaced (TestMSHRMatchesHeap). live holds the survivors of the last
// fold, sorted; pend the commits since, in call order; pts the prune points
// since, folded to their maximum per gap: pts[0] before pend[0], pts[i+1]
// after pend[i] (0 until one is recorded), empty when none is pending. An
// acquire that finds len(live)+len(pend) < cap, a bound on the exact
// occupancy, records its start and returns it: the prune would leave room.
// Otherwise it folds. With nothing pending, commit inserts straight into
// live, as in the always-full L1 files. When each commit follows its
// acquire, pend holds at most cap entries and pts cap+1.
type mshr struct {
	cap  int
	buf  []mem.Cycle // live's backing, twice cap so live can slide forward
	live []mem.Cycle
	pend []mem.Cycle
	pts  []mem.Cycle
	// stalls counts how many acquisitions had to wait for a free entry.
	stalls uint64
	// mshrCheck is the simcheck sanitizer's accounting (empty in normal
	// builds).
	mshrCheck
}

func newMSHR(entries int) *mshr {
	if entries <= 0 {
		panic("sim: MSHR entries must be positive")
	}
	buf := make([]mem.Cycle, 2*entries)
	return &mshr{cap: entries, buf: buf, live: buf[:0],
		pend: make([]mem.Cycle, 0, entries), pts: make([]mem.Cycle, 0, entries+1)}
}

// acquire prunes completed entries at `start` and, if the file is full,
// delays start until the earliest outstanding miss completes.
//
//chromevet:hot
func (m *mshr) acquire(start mem.Cycle) mem.Cycle {
	m.noteAcquire()
	if len(m.live)+len(m.pend) < m.cap {
		if n := len(m.pts); n > 0 {
			m.pts[n-1] = max(m.pts[n-1], start)
		} else {
			m.pts = append(m.pts, start)
		}
		return start
	}
	if len(m.pts) > 0 {
		m.fold(start)
	} else {
		m.drop(start)
	}
	for len(m.live) >= m.cap {
		// live's head is > start, because everything ≤ start was just
		// dropped; pruning at it frees at least that entry.
		start = m.live[0]
		m.stalls++
		m.drop(start)
	}
	return start
}

// commit registers an outstanding miss completing at the given cycle.
//
//chromevet:hot
func (m *mshr) commit(complete mem.Cycle) {
	if len(m.pts) > 0 {
		m.pend = append(m.pend, complete)
		m.pts = append(m.pts, 0)
	} else {
		m.insert(complete)
	}
	m.noteCommit()
}

// fold applies every pending prune point and now: a pending commit survives
// iff it exceeds now and every point after it (a backward running maximum),
// and live keeps only entries above the largest point.
//
//chromevet:hot
func (m *mshr) fold(now mem.Cycle) {
	hi, w := now, len(m.pend)
	for i := len(m.pend) - 1; i >= 0; i-- {
		hi = max(hi, m.pts[i+1])
		if c := m.pend[i]; c > hi {
			w--
			m.pend[w] = c
		}
	}
	m.drop(max(hi, m.pts[0]))
	for _, c := range m.pend[w:] {
		m.insert(c)
	}
	m.pend, m.pts = m.pend[:0], m.pts[:0]
}

// insert adds c to live in order.
//
//chromevet:hot
func (m *mshr) insert(c mem.Cycle) {
	if len(m.live) == cap(m.live) {
		m.live = append(m.buf[:0], m.live...) // slid to buf's end: move back
	}
	m.live = append(m.live, c) // grows only past acquire's back-pressure
	i := len(m.live) - 1
	for ; i > 0 && m.live[i-1] > c; i-- {
		m.live[i] = m.live[i-1]
	}
	m.live[i] = c
}

// drop removes live's entries ≤ now, a prefix since live is sorted.
//
//chromevet:hot
func (m *mshr) drop(now mem.Cycle) {
	i := 0
	for i < len(m.live) && m.live[i] <= now {
		i++
	}
	m.live = m.live[i:]
}

// occupancy returns the number of outstanding entries without folding. A
// pending commit at cycle 0 with no prune point after it counts as pruned;
// the simulator's completions all follow a positive latency.
func (m *mshr) occupancy() int {
	n, hi := len(m.live), mem.Cycle(0)
	for i := len(m.pts) - 1; i >= 0; i-- {
		if hi = max(hi, m.pts[i]); i > 0 && m.pend[i-1] > hi {
			n++
		}
	}
	for i := 0; i < len(m.live) && m.live[i] <= hi; i++ {
		n--
	}
	return n
}
