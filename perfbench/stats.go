package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// median returns the median of xs (the mean of the middle two for an
// even count); xs must be non-empty.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs, refusing
// one that fewer than minTail samples lie beyond: such a tail is one or
// two unlucky samples, not a percentile.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, beyond, minTail)
	}
	return sorted(xs)[rank-1], nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// scv is the squared coefficient of variation var/mean² of xs.
func scv(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	return sq / float64(len(xs)) / (mean * mean)
}
