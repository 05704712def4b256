//go:build simcheck

package objcache

import "fmt"

// SimcheckEnabled reports whether the store sanitizer is compiled in.
const SimcheckEnabled = true

// check validates the shard's conservation laws after an operation: the
// band lists and the table must describe the same object set, the
// accounted bytes must equal the sum over live objects, and the stats
// counters must balance (Admits-Evictions-Deletes = live objects,
// BytesAdmitted+BytesResized-BytesEvicted-BytesDeleted = accounted
// bytes). Violations panic with enough context to localize the corrupting
// operation. Without -tags simcheck this compiles to an empty function
// (see simcheck_off.go).
func (s *shard) check() {
	live := 0
	var bytes int64
	for b := range s.bands {
		for e := s.bands[b].head; e != nil; e = e.next {
			if int(e.band) != b {
				panic(fmt.Sprintf("simcheck: objcache shard: entry %q filed in band %d carries band %d", e.key, b, e.band))
			}
			if s.table[e.key] != e {
				panic(fmt.Sprintf("simcheck: objcache shard: entry %q in band %d not the table's entry", e.key, b))
			}
			live++
			bytes += entrySize(e.key, e.val)
		}
	}
	if live != len(s.table) {
		panic(fmt.Sprintf("simcheck: objcache shard: %d entries in bands, %d in table", live, len(s.table)))
	}
	if bytes != s.bytes {
		panic(fmt.Sprintf("simcheck: objcache shard: %d bytes in bands, %d accounted", bytes, s.bytes))
	}
	if n := s.stats.Admits - s.stats.Evictions - s.stats.Deletes; n != int64(live) {
		panic(fmt.Sprintf("simcheck: objcache shard: conservation broken: Admits-Evictions-Deletes=%d, live=%d", n, live))
	}
	if b := s.stats.BytesAdmitted + s.stats.BytesResized - s.stats.BytesEvicted - s.stats.BytesDeleted; b != s.bytes {
		panic(fmt.Sprintf("simcheck: objcache shard: byte ledger broken: counters say %d, accounted %d", b, s.bytes))
	}
	if s.bytes > s.capBytes {
		panic(fmt.Sprintf("simcheck: objcache shard: %d accounted bytes over capacity %d", s.bytes, s.capBytes))
	}
}
