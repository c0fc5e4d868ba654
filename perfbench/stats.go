package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the value is one or two outliers, not a tail.
const minBeyond = 10

// summary is the percentile report of one distribution: the median always,
// the p99 only when at least minBeyond samples lie beyond it.
type summary struct {
	N      int
	P50    float64
	P99    float64
	HasP99 bool
	Max    float64
}

// summarize sorts a copy of xs and reads nearest-rank percentiles from it.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: rank(s, 0.50), Max: s[len(s)-1]}
	if beyond99(len(s)) >= minBeyond {
		out.P99, out.HasP99 = rank(s, 0.99), true
	}
	return out
}

// rank is the nearest-rank percentile p of sorted s.
func rank(s []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// beyond99 is how many of n samples lie beyond the nearest-rank p99.
func beyond99(n int) int {
	return n - int(math.Ceil(0.99*float64(n)))
}

// median is the nearest-rank median of xs (0 when empty).
func median(xs []float64) float64 { return summarize(xs).P50 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
