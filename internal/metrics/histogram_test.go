package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	// Below 64 every value is its own bucket.
	for v := int64(0); v < 64; v++ {
		if b := bucketOf(v); b != int(v) || midpoint(b) != v {
			t.Fatalf("bucketOf(%d) = %d, midpoint %d", v, b, midpoint(b))
		}
	}
	// Above, buckets tile the line in order, each holding its own
	// midpoint and at most 1/32 of its lower bound wide.
	lo := int64(64)
	for i := 64; i < nBuckets; i++ {
		width := int64(1) << (i>>subBits - 1)
		if bucketOf(lo) != i || bucketOf(lo+width-1) != i || bucketOf(midpoint(i)) != i {
			t.Fatalf("bucket %d: [%d, %d] maps to %d..%d", i, lo, lo+width-1, bucketOf(lo), bucketOf(lo+width-1))
		}
		if width > lo/32 {
			t.Fatalf("bucket %d at %d is %d wide", i, lo, width)
		}
		if i == nBuckets-1 {
			if lo+width-1 != math.MaxInt64 {
				t.Fatalf("last bucket ends at %d", lo+width-1)
			}
			break
		}
		lo += width
	}
	var h Histogram
	h.Observe(-5) // counts as 0
	if h.buckets[0] != 1 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatalf("negative value: bucket0=%d max=%d mean=%v", h.buckets[0], h.Max(), h.Mean())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d", q, got)
		}
	}
	if h.Mean() != 0 || h.Max() != 0 {
		t.Fatalf("empty mean/max %v/%d", h.Mean(), h.Max())
	}
}

func TestHistogramSnapshotIsolated(t *testing.T) {
	// A plain copy is the snapshot the registry takes under its lock, so
	// it must share no state with the original.
	var h Histogram
	h.Observe(1)
	s := h
	h.Observe(1000)
	if s.Quantile(1) != 1 || s.Max() != 1 || s.Mean() != 1 {
		t.Fatalf("copy follows the original: p100=%d max=%d mean=%v", s.Quantile(1), s.Max(), s.Mean())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 100 exact values: 50×5, 40×15, 5×25, 4×35, 1×60.
	for v, n := range map[int64]int{5: 50, 15: 40, 25: 5, 35: 4, 60: 1} {
		for i := 0; i < n; i++ {
			h.Observe(v)
		}
	}
	// Exact rank selection: rank ⌈q·100⌉ against cumulative counts
	// 50/90/95/99/100.
	cases := []struct {
		q    float64
		want int64
	}{
		{0.5, 5}, {0.51, 15}, {0.9, 15}, {0.95, 25}, {0.99, 35}, {1.0, 60},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Fatalf("q=%v: got %d want %d", c.q, got, c.want)
		}
	}
	if h.Quantile(0) != 0 {
		t.Fatal("q=0 should be 0")
	}
}

func TestHistogramQuantileClamped(t *testing.T) {
	// All observations share the bucket [992, 1007], midpoint 999:
	// quantiles clamp to [Min, Max] instead of reporting the midpoint.
	var hi Histogram
	hi.Observe(1001)
	hi.Observe(1003)
	if got := hi.Quantile(0.5); got != 1001 {
		t.Fatalf("clamped p50 = %d want 1001 (min)", got)
	}
	var lo Histogram
	lo.Observe(992)
	lo.Observe(993)
	if got := lo.Quantile(0.99); got != 993 {
		t.Fatalf("clamped p99 = %d want 993 (max)", got)
	}
}

// TestHistogramQuantileProperty checks every reported quantile against
// the exact sorted quantile on seeded samples of four shapes: within
// 1/32 of it, and exact for values below 32.
func TestHistogramQuantileProperty(t *testing.T) {
	const n = 20000
	shapes := []struct {
		name string
		draw func(r *rand.Rand) int64
	}{
		{"small", func(r *rand.Rand) int64 { return r.Int63n(32) }},
		{"uniform", func(r *rand.Rand) int64 { return r.Int63n(1e9) }},
		{"exponential", func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 5e6) }},
		{"bimodal", func(r *rand.Rand) int64 {
			if r.Intn(10) < 7 {
				return int64(max(0, 1e5+r.NormFloat64()*1e4))
			}
			return int64(max(0, 2e8+r.NormFloat64()*3e7))
		}},
		{"pareto", func(r *rand.Rand) int64 { return int64(1e4 / math.Pow(1-r.Float64(), 1/1.5)) }},
	}
	for i, sh := range shapes {
		r := rand.New(rand.NewSource(int64(i + 1)))
		var h Histogram
		vals := make([]int64, n)
		var sum int64
		for j := range vals {
			vals[j] = sh.draw(r)
			h.Observe(vals[j])
			sum += vals[j]
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		if h.Max() != vals[n-1] || h.Mean() != float64(sum)/n {
			t.Fatalf("%s: max %d mean %v, want %d %v", sh.name, h.Max(), h.Mean(), vals[n-1], float64(sum)/n)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			exact := vals[int(math.Ceil(q*n))-1]
			got := h.Quantile(q)
			if sh.name == "small" && got != exact {
				t.Fatalf("small q=%v: got %d want exactly %d", q, got, exact)
			}
			if math.Abs(float64(got-exact)) > float64(exact)/32 {
				t.Fatalf("%s q=%v: got %d, exact %d (off %.2f%%)", sh.name, q, got, exact,
					100*math.Abs(float64(got-exact))/float64(exact))
			}
		}
	}
}
