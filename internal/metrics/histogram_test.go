package metrics

import (
	"sync"
	"testing"
)

func TestHistogramBounds(t *testing.T) {
	if _, err := NewHistogram(); err == nil {
		t.Fatal("empty bounds accepted")
	}
	if _, err := NewHistogram(10, 5); err == nil {
		t.Fatal("descending bounds accepted")
	}
	if _, err := NewHistogram(5, 5); err == nil {
		t.Fatal("duplicate bounds accepted")
	}
	if _, err := NewHistogram(1, 2, 3); err != nil {
		t.Fatalf("valid bounds rejected: %v", err)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := MustHistogram(10, 100, 1000)
	// Bucket edges are inclusive upper bounds; values past the last bound
	// land in the overflow bucket, and values below the first bound
	// (including negatives) land in the first.
	for _, v := range []int64{-5, 0, 10} { // first bucket
		h.Observe(v)
	}
	h.Observe(11)   // second
	h.Observe(100)  // second
	h.Observe(101)  // third
	h.Observe(1001) // overflow
	s := h.Snapshot()
	want := []int64{3, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d: got %d want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count %d want 7", s.Count)
	}
	if s.Min != -5 || s.Max != 1001 {
		t.Fatalf("min/max %d/%d want -5/1001", s.Min, s.Max)
	}
	if s.Sum != -5+0+10+11+100+101+1001 {
		t.Fatalf("sum %d", s.Sum)
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(42) // must not panic
	s := nilH.Snapshot()
	if s.Count != 0 || s.Mean() != 0 {
		t.Fatalf("nil histogram snapshot: %+v", s)
	}
	h := MustHistogram(1, 2)
	s = h.Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Mean() != 0 {
		t.Fatalf("empty histogram snapshot: %+v", s)
	}
	if h.String() == "" {
		t.Fatal("empty histogram should still render")
	}
}

func TestHistogramSnapshotIsolated(t *testing.T) {
	h := MustHistogram(10)
	h.Observe(1)
	s := h.Snapshot()
	s.Counts[0] = 99
	s.Bounds[0] = 99
	if got := h.Snapshot(); got.Counts[0] != 1 || got.Bounds[0] != 10 {
		t.Fatalf("snapshot aliases histogram state: %+v", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := MustHistogram(LatencyBuckets()...)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count %d want %d", got, workers*per)
	}
	var total int64
	for _, c := range h.Snapshot().Counts {
		total += c
	}
	if total != workers*per {
		t.Fatalf("bucket counts sum to %d want %d", total, workers*per)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := MustHistogram(10, 20, 30, 40)
	// 100 observations: 50 in ≤10, 40 in ≤20, 5 in ≤30, 4 in ≤40, 1 overflow.
	for i := 0; i < 50; i++ {
		h.Observe(5)
	}
	for i := 0; i < 40; i++ {
		h.Observe(15)
	}
	for i := 0; i < 5; i++ {
		h.Observe(25)
	}
	for i := 0; i < 4; i++ {
		h.Observe(35)
	}
	h.Observe(99)
	// Exact rank selection: rank ⌈q·100⌉ against cumulative counts
	// 50/90/95/99/100.
	cases := []struct {
		q    float64
		want int64
	}{
		{0.5, 10},  // rank 50 → first bucket
		{0.51, 20}, // rank 51 → second bucket
		{0.9, 20},  // rank 90
		{0.95, 30}, // rank 95
		{0.99, 40}, // rank 99
		{1.0, 99},  // rank 100 → overflow, clamped to Max
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Fatalf("q=%v: got %d want %d", c.q, got, c.want)
		}
	}
	if h.Quantile(0) != 0 {
		t.Fatal("q=0 should be 0")
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile should be 0")
	}
}

func TestHistogramQuantileClamped(t *testing.T) {
	// All observations share one bucket: quantiles clamp to [Min, Max]
	// instead of reporting the loose bucket bound.
	h := MustHistogram(1000)
	h.Observe(7)
	h.Observe(9)
	if got := h.Quantile(0.5); got != 9 {
		t.Fatalf("clamped p50 = %d want 9 (max)", got)
	}
	lo := MustHistogram(1000)
	lo.Observe(3)
	if got := lo.Quantile(0.01); got != 3 {
		t.Fatalf("clamped low quantile = %d want 3", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := MustHistogram(10, 20)
	b := MustHistogram(10, 20)
	a.Observe(5)
	a.Observe(15)
	b.Observe(25)
	b.Observe(3)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	s := a.Snapshot()
	if s.Count != 4 || s.Sum != 5+15+25+3 {
		t.Fatalf("merged snapshot %+v", s)
	}
	if s.Min != 3 || s.Max != 25 {
		t.Fatalf("merged min/max %d/%d", s.Min, s.Max)
	}
	want := []int64{2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("merged bucket %d = %d want %d", i, s.Counts[i], w)
		}
	}
	// b is untouched.
	if b.Count() != 2 {
		t.Fatalf("merge mutated source: %d", b.Count())
	}
	// Quantiles over the merged histogram match re-observation semantics.
	if got := a.Quantile(0.5); got != 10 {
		t.Fatalf("merged p50 = %d want 10", got)
	}
}

func TestHistogramMergeMismatch(t *testing.T) {
	a := MustHistogram(10, 20)
	if err := a.Merge(MustHistogram(10)); err == nil {
		t.Fatal("bucket-count mismatch accepted")
	}
	if err := a.Merge(MustHistogram(10, 30)); err == nil {
		t.Fatal("bound mismatch accepted")
	}
	if a.Count() != 0 {
		t.Fatal("failed merge mutated destination")
	}
}

func TestHistogramMergeNilAndEmpty(t *testing.T) {
	var nilH *Histogram
	if err := nilH.Merge(MustHistogram(10)); err != nil {
		t.Fatal(err)
	}
	a := MustHistogram(10)
	if err := a.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(MustHistogram(10)); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 0 {
		t.Fatal("empty merges observed something")
	}
	// Merging into an empty histogram adopts min/max.
	b := MustHistogram(10)
	b.Observe(4)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if s := a.Snapshot(); s.Min != 4 || s.Max != 4 {
		t.Fatalf("empty-destination merge min/max: %+v", s)
	}
}

func TestLatencyBuckets(t *testing.T) {
	bs := LatencyBuckets()
	if len(bs) == 0 || bs[0] != 1_000 || bs[len(bs)-1] != 10_000_000_000 {
		t.Fatalf("latency ladder %v", bs)
	}
	if _, err := NewHistogram(bs...); err != nil {
		t.Fatalf("latency ladder invalid: %v", err)
	}
}
