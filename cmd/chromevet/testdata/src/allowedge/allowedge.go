// Package fixture exercises the suppression audit: an allow on the wrong
// line suppresses nothing (the finding surfaces and the allow is reported
// stale), an allow naming an unknown analyzer is a typo that would stay
// silent forever, and a correctly placed allow is quietly marked used.
// The lock-discipline analyzers (guardedby/lockorder/hotblock) get the
// same three-way treatment below.
package fixture

import "sync"

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

// joinStale parks a waiver for joinsync where no goroutine is spawned:
// the analyzer runs over this package, reports nothing on the line, and
// the audit flags the waiver stale.
func joinStale() int {
	return 1 //chromevet:allow joinsync -- no goroutines here // want allow "stale allow: joinsync reported no finding"
}

// lockedBox gives the lock-discipline analyzers something real to find:
// a ranked mutex guarding one field.
type lockedBox struct {
	mu sync.Mutex //chromevet:lockrank 10
	v  int        //chromevet:guardedby mu
}

// guardedWrongLine parks the guardedby waiver two lines above the
// unlocked read: the finding surfaces and the waiver is reported stale.
func guardedWrongLine(b *lockedBox) int {
	//chromevet:allow guardedby -- misplaced: the unlocked read is two lines down // want allow "stale allow: guardedby reported no finding on this line"

	return b.v // want guardedby "read of guarded field v without holding mu"
}

// guardedTypo misspells the analyzer, so the unlocked write is not
// suppressed and the typo itself is reported.
func guardedTypo(b *lockedBox) {
	b.v = 9 //chromevet:allow gaurdedby -- typo'd analyzer name // want allow "unknown analyzer \"gaurdedby\"" // want guardedby "write to guarded field v without holding mu"
}

// guardedUsed is the live-suppression case for guardedby: the allow
// matches a real finding on its line, so neither surfaces.
func guardedUsed(b *lockedBox) int {
	return b.v //chromevet:allow guardedby -- fixture: exercises a live suppression
}

// orderStale parks a lockorder waiver where only one lock is ever held:
// no out-of-order acquisition, so the waiver is stale.
func orderStale(b *lockedBox) {
	b.mu.Lock() //chromevet:allow lockorder -- only one lock exists here // want allow "stale allow: lockorder reported no finding"
	b.v++
	b.mu.Unlock()
}

// hotStale parks a hotblock waiver in a function that is not annotated
// hot: the analyzer never looks, so the waiver is stale.
func hotStale() int {
	return 3 //chromevet:allow hotblock -- not a hot function // want allow "stale allow: hotblock reported no finding"
}

var _ = []any{wrongLine, unknownName, properlyUsed, joinStale,
	guardedWrongLine, guardedTypo, guardedUsed, orderStale, hotStale}
