// Package fixture exercises the suppression audit on maprange's
// collect-then-sort idiom: an allow on the wrong line suppresses nothing
// (the finding surfaces and the allow is reported stale), an allow naming
// an unknown analyzer is a typo that would stay silent forever, and a
// correctly placed allow is quietly marked used. Loaded by the driver test
// under chrome/internal/sim/allowedge so the core-package scope applies.
package fixture

import "sort"

// wrongLine carries an allow two lines above the hazard: out of range.
func wrongLine(m map[string]int) []string {
	//chromevet:allow maprange -- misplaced: the write is two lines down // want allow "stale allow: maprange reported no finding on this line"
	var keys []string
	for k := range m {
		keys = append(keys, k) // want maprange "write to \"keys\""
	}
	sort.Strings(keys)
	return keys
}

// unknownName misspells the analyzer, so the write is not suppressed and
// the typo itself is reported.
func unknownName(m map[string]int) []string {
	var names []string
	for k := range m {
		names = append(names, k) //chromevet:allow maprnage -- typo'd analyzer name // want allow "unknown analyzer \"maprnage\"" // want maprange "write to \"names\""
	}
	sort.Strings(names)
	return names
}

// properlyUsed is the negative case: the allow matches a real finding on
// its line, so neither the finding nor a stale report appears.
func properlyUsed(m map[int]bool) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id) //chromevet:allow maprange -- fixture: collect-then-sort, the keys are sorted below
	}
	sort.Ints(ids)
	return ids
}

// hotStale parks a hotblock waiver in a function that is not annotated
// hot: the analyzer never looks, so the waiver is stale.
func hotStale() int {
	return 3 //chromevet:allow hotblock -- not a hot function // want allow "stale allow: hotblock reported no finding"
}

var _ = []any{wrongLine, unknownName, properlyUsed, hotStale}
