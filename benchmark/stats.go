package main

import (
	"math"
	"sort"
)

// summary is a timing distribution reduced to what the benchmark reports:
// the sample count, the median, and the 99th percentile.
type summary struct {
	n        int
	p50, p99 float64
}

// summarize sorts xs in place and returns its nearest-rank median and 99th
// percentile. An empty sample yields the zero summary.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	return summary{n: len(xs), p50: quantile(xs, 0.5), p99: quantile(xs, 0.99)}
}

// quantile returns the nearest-rank q-quantile of sorted, the smallest
// sample with at least a q share of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// tailSupported reports whether a q-quantile over n samples has at least
// ten samples beyond it, the least for a tail figure to mean anything.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return summarize(c).p50
}

// mean returns the arithmetic mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
