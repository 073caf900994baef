package main

import (
	"math"
	"sort"
)

// beyond is how many samples must lie above a percentile for it to be
// reported: with fewer, the value is set by a handful of requests.
const beyond = 10

// percentile returns the p-th percentile (0 < p < 1) of xs by nearest rank.
// ok is false when fewer than ten samples lie beyond it; the percentile is
// then unresolved. xs is sorted in place.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 || n-rank < beyond {
		return 0, false
	}
	sort.Float64s(xs)
	return xs[rank-1], true
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 for none. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
