// Package fixture exercises the maprange analyzer: map-iteration bodies
// whose effects depend on Go's randomized iteration order. Loaded by the
// driver test under the import path chrome/internal/sim/vetfixture so the
// core-package scope applies.
package fixture

import (
	"maps"
	"slices"
)

// sumInt is a negative case: integer accumulation is commutative.
func sumInt(m map[string]uint64) uint64 {
	var total uint64
	for _, v := range m {
		total += v
	}
	return total
}

// sumFloat accumulates floats, where addition order changes the result.
func sumFloat(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want maprange "floating-point accumulation"
	}
	return total
}

// lastKey writes an outer variable whose final value depends on order.
func lastKey(m map[string]int) string {
	last := ""
	for k := range m {
		last = k // want maprange "write to \"last\""
	}
	return last
}

// anyKey returns mid-iteration: an arbitrary element wins.
func anyKey(m map[int]int) int {
	for k := range m {
		return k // want maprange "return"
	}
	return 0
}

// firstBig breaks out of the iteration at an arbitrary element.
func firstBig(m map[int]int) {
	found := 0
	for k := range m {
		if k > 10 {
			found = k // want maprange "write to \"found\""
			break     // want maprange "break"
		}
	}
	_ = found
}

type counter struct{ n int }

func (c *counter) inc() { c.n++ }

// tally calls a pointer-receiver method on outer state per element.
func tally(m map[string]int, c *counter) {
	for range m {
		c.inc() // want maprange "pointer-receiver method call inc"
	}
}

// collectSorted is a negative case and the sanctioned pattern for using
// a map's keys in order: no range statement, so nothing to flag.
func collectSorted(m map[string]int) []string {
	return slices.Sorted(maps.Keys(m))
}

// localOnly is a negative case: all mutated state is loop-local.
func localOnly(m map[string]int) int {
	total := 0
	for _, v := range m {
		x := v * 2
		total += x
	}
	return total
}

// sliceWrites is a negative case: slice iteration order is defined.
func sliceWrites(s []float64) float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// nestedBreak is a negative case: the break binds to the inner loop, and
// the cross-key accumulation is commutative integer arithmetic.
func nestedBreak(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		for _, v := range vs {
			if v < 0 {
				break
			}
			total += v
		}
	}
	return total
}

// deferredReturn: the append is order-dependent and flagged, but the
// return inside the closure exits the closure, not the range loop, so it
// is not.
func deferredReturn(m map[string]int) []func() int {
	var fns []func() int
	for _, v := range m {
		v := v
		fns = append(fns, func() int { return v }) // want maprange "write to \"fns\""
	}
	return fns
}

var _ = []any{sumInt, sumFloat, lastKey, anyKey, firstBig, tally, collectSorted, localOnly, sliceWrites, nestedBreak, deferredReturn}
