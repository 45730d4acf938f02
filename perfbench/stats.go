package main

import (
	"math"
	"sort"
)

// median returns the median of xs (the mean of the two middle values for an
// even count), or NaN when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 100) of xs:
// the smallest sample with at least q% of the samples at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	// The epsilon keeps q·n that is whole in decimal (99.9% of 10000) from
	// rounding up to the next rank.
	rank := int(math.Ceil(q/100*float64(len(s)) - 1e-9))
	return s[min(max(rank, 1), len(s))-1]
}

// tailLadder lists the percentiles a timing may be reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie strictly above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile picks the highest percentile of tailLadder that has at least
// minBeyond samples strictly above it, and returns it with its value. ok is
// false when no percentile qualifies (fewer than 2·minBeyond samples).
func tailPercentile(xs []float64) (q, value float64, ok bool) {
	s := sortedCopy(xs)
	for _, q := range tailLadder {
		v := percentile(s, q)
		beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
		if beyond >= minBeyond {
			return q, v, true
		}
	}
	return 0, 0, false
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
