package main

import "slices"

// minTail is how many samples must lie beyond a reported percentile for
// it to be reported at all.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the 1-based nearest-rank position of the p-th percentile in n
// sorted samples.
func rank(n, p int) int {
	return max((p*n+99)/100, 1)
}

// percentile returns the nearest-rank p-th percentile of xs, or 0 for no
// samples.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), p)-1]
}

// beyond counts the samples of n that lie past the p-th percentile's
// rank: a p95 over 200 samples has 10 beyond it, over 199 only 9.
func beyond(n, p int) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}
