// Package fixture exercises the suppression audit: an allow on the wrong
// line suppresses nothing (the finding surfaces and the allow is reported
// stale), an allow naming an unknown analyzer is a typo that would stay
// silent forever, and a correctly placed allow is quietly marked used.
package fixture

// wrongLine carries an allow two lines above the hazard: out of range.
func wrongLine(x uint64) uint8 {
	//chromevet:allow narrowing -- misplaced: the conversion is two lines down // want allow "stale allow: narrowing reported no finding on this line"

	return uint8(x) // want narrowing "uint8\(...\) narrows"
}

// unknownName misspells the analyzer, so the conversion is not suppressed
// and the typo itself is reported.
func unknownName(x uint64) uint16 {
	return uint16(x) //chromevet:allow narrwoing -- typo'd analyzer name // want allow "unknown analyzer \"narrwoing\"" // want narrowing "uint16\(...\) narrows"
}

// properlyUsed is the negative case: the allow matches a real finding on
// its line, so neither the finding nor a stale report appears.
func properlyUsed(x uint64) uint32 {
	return uint32(x) //chromevet:allow narrowing -- fixture: exercises a live suppression
}

// hotStale parks a hotblock waiver in a function that is not annotated
// hot: the analyzer never looks, so the waiver is stale.
func hotStale() int {
	return 3 //chromevet:allow hotblock -- not a hot function // want allow "stale allow: hotblock reported no finding"
}

var _ = []any{wrongLine, unknownName, properlyUsed, hotStale}
