package chrome

import "chrome/internal/mem"

// EQEntry records one executed action in the Evaluation Queue (paper §V-A,
// Fig. 4): the state vector, the chosen action, whether the action was
// triggered by a hit or a miss, a 16-bit hash of the requested address, the
// issuing core (needed for the OB/NOB reward split at eviction time), and
// the assigned reward once known.
type EQEntry struct {
	// State is the observed state vector at decision time.
	State State
	// Action is the executed action.
	Action Action
	// TriggerHit records whether the action was taken on a hit (true) or a
	// miss (false).
	TriggerHit bool
	// AddrHash is the 16-bit hashed block address used for re-reference
	// matching.
	AddrHash uint16
	// Core is the issuing core (for obstruction lookup at NR time).
	Core uint8
	// HasReward marks the entry as already rewarded.
	HasReward bool
	// Reward is the assigned reward (valid when HasReward).
	Reward int8
}

// HashAddr produces the 16-bit block-address hash stored in EQ entries.
//
//chromevet:hot
func HashAddr(a mem.Addr) uint16 {
	return uint16(mem.FoldHash(a.Block().Uint64(), 16))
}

// EQ is the Evaluation Queue: one bounded FIFO per sampled set (64 queues
// of 28 entries in the paper's configuration, §V-D). Insertion into a full
// queue evicts the oldest entry, which then receives its not-re-referenced
// reward (if still unrewarded) and drives the SARSA update.
type EQ struct {
	depth  int
	queues []eqRing
}

type eqRing struct {
	buf  []EQEntry
	head int // index of the oldest entry
	n    int
}

// NewEQ builds an evaluation queue with `queues` FIFOs of `depth` entries.
func NewEQ(queues, depth int) *EQ {
	if queues <= 0 || depth <= 0 {
		panic("chrome: EQ queues and depth must be positive")
	}
	eq := &EQ{depth: depth, queues: make([]eqRing, queues)}
	for i := range eq.queues {
		eq.queues[i].buf = make([]EQEntry, depth)
	}
	return eq
}

// Len returns the occupancy of queue q.
func (eq *EQ) Len(q int) int { return eq.queues[q].n }

// Find returns the oldest unrewarded entry in queue q whose address hash
// matches, or nil.
//
//chromevet:hot
func (eq *EQ) Find(q int, addrHash uint16) *EQEntry {
	r := &eq.queues[q]
	for i := 0; i < r.n; i++ {
		e := &r.buf[(r.head+i)%eq.depth]
		if !e.HasReward && e.AddrHash == addrHash {
			return e
		}
	}
	return nil
}

// Insert appends an entry to queue q. When the queue is full the oldest
// entry is evicted and returned with evicted=true.
//
//chromevet:hot
func (eq *EQ) Insert(q int, e EQEntry) (old EQEntry, evicted bool) {
	r := &eq.queues[q]
	if r.n == eq.depth {
		old = r.buf[r.head]
		r.buf[r.head] = e
		r.head = (r.head + 1) % eq.depth
		return old, true
	}
	r.buf[(r.head+r.n)%eq.depth] = e
	r.n++
	return EQEntry{}, false
}

// Head returns the oldest entry of queue q (the SARSA successor
// state-action after an eviction), or nil when the queue is empty.
//
//chromevet:hot
func (eq *EQ) Head(q int) *EQEntry {
	r := &eq.queues[q]
	if r.n == 0 {
		return nil
	}
	return &r.buf[r.head]
}
