package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest sample with at least p% of the samples
// at or below it. Nearest rank returns a value that was measured, never
// an interpolation between two.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples. The epsilon absorbs the rounding of percentiles that have no
// exact binary form (99.9), which would otherwise push a whole-number
// rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailCandidates are the percentiles a latency tail may be reported at,
// ascending.
var tailCandidates = []float64{50, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be a measurement and not one outlier's value.
const minBeyond = 10

// tailPercentile is the reporting rule for latency tails: the highest
// candidate percentile, capped at limit, that still has at least
// minBeyond of the n samples beyond it. With too few samples for even
// the median it returns 50.
func tailPercentile(n int, limit float64) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if p > limit {
			break
		}
		if n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method),
// because that is the rule the acceptance check applies to this
// benchmark's own spread. Fewer than two samples have no spread: both
// quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	switch m {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// figure the metric bounds in BENCHMARK.json are compared against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
