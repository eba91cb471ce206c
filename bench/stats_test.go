package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	// The highest candidate percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{5, 99, 50},    // too few for anything: the median is all there is
		{20, 99, 50},   // 10 beyond p50, 2 beyond p90
		{100, 99, 90},  // 10 beyond p90, 5 beyond p95
		{199, 99, 90},  // 9.95 beyond p95
		{200, 99, 95},  // exactly 10 beyond p95
		{999, 99, 95},  // 9.99 beyond p99
		{1000, 99, 99}, // exactly 10 beyond p99
		{2240, 99, 99},
		{100000, 99, 99},     // capped at the limit although p99.9 is supported
		{100000, 99.9, 99.9}, // 100 beyond p99.9
		{9999, 99.9, 99},
	} {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}, {90, 90}, {99.9, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7}, 2, 9},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{2.5, 3.1, 2.9, 3.0, 2.7, 3.3, 2.8, 3.2, 2.6, 3.4}, 2.675, 3.225},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
}
