//go:build linux

package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest-rank index of the p-th percentile among n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps a product that is a whole number but for float
	// rounding (99.9 % of 10000) from being rounded up past it.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile is the nearest-rank p-th percentile of an ascending slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	return asc[rank(len(asc), p)-1]
}

// minBeyond is how many samples must lie above a percentile's rank for
// the percentile to be reported: a tail read off fewer samples is one
// outlier's value, not the distribution's.
const minBeyond = 10

// supported reports whether n samples leave at least minBeyond samples
// beyond the p-th percentile.
func supported(n int, p float64) bool {
	return n-rank(n, p) >= minBeyond
}

// tailPercentile picks the highest of the usual tail percentiles that n
// samples support, or 50 when even p90 has too few samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if supported(n, p) {
			return p
		}
	}
	return 50
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
