//go:build linux

package main

import (
	"math"
	"slices"
)

// The latency recorder keeps every sample: one preallocated int64 of
// nanoseconds per request and pass (samples in driver.go), sorted after
// the pass ends. Quantiles are therefore exact order statistics, not
// bucket edges.

// sortedMerge concatenates per-worker samples and sorts them.
func sortedMerge(parts ...[]int64) []int64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	all := make([]int64, 0, n)
	for _, p := range parts {
		all = append(all, p...)
	}
	slices.Sort(all)
	return all
}

// quantile returns the nearest-rank q-quantile of ascending samples: the
// smallest sample with at least q of the samples at or below it. It
// returns 0 for an empty slice.
func quantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	// The epsilon keeps 0.99*100 = 99.00000000000001 at rank 99.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// fractile returns the q-quantile of xs, interpolating linearly between
// the two nearest order statistics (rank (n-1)q, counted from 0). It does
// not modify xs and returns 0 for an empty slice.
func fractile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	rank := float64(n-1) * q
	lo := int(rank)
	if lo >= n-1 {
		return s[n-1]
	}
	return s[lo] + (rank-float64(lo))*(s[lo+1]-s[lo])
}

// median returns the median of xs, the mean of the middle two when even.
func median(xs []float64) float64 { return fractile(xs, 0.5) }

// ratio is a/b, and 0 where there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
