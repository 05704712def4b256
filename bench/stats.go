package main

import (
	"cmp"
	"math"
	"slices"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same
// "exclusive" interpolation as Python's statistics.quantiles(xs, n=4), so a
// spread printed here matches one computed from the printed values. One
// sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := slices.Sorted(slices.Values(xs))
	ld := len(s)
	cut := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of a
// non-empty ascending slice.
func percentile[T cmp.Ordered](sorted []T, p float64) T {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPercentile returns the highest of the usual tail percentiles that
// still has at least ten of n samples beyond it, so a reported tail is never
// set by a handful of outliers; it falls back to the median for tiny n.
func tailPercentile(n int) float64 {
	// Beyond the 100(1-1/k)-th percentile lie n/k samples.
	for _, k := range []int{10_000, 1_000, 100, 10} {
		if n >= 10*k {
			return 100 - 100/float64(k)
		}
	}
	return 50
}
