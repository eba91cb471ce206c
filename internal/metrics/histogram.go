package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Histogram is a fixed-bucket size/latency histogram: values are counted
// into buckets delimited by a fixed ascending list of inclusive upper
// bounds, with one implicit overflow bucket past the last bound. Like
// CounterSet it is race-safe and nil-safe, so callers can observe
// unconditionally from any goroutine. The telemetry registry and the
// workload driver record per-operation latency through one.
type Histogram struct {
	mu     sync.Mutex
	bounds []int64 // ascending inclusive upper bounds
	counts []int64 // len(bounds)+1; last is the overflow bucket
	count  int64
	sum    int64
	min    int64
	max    int64
}

// LatencyBuckets is a 1-2-5 ladder of nanosecond bounds from 1 µs to
// 10 s — the layout the telemetry registry uses for per-operation wall
// latency, dense enough that p50/p95/p99 land in distinct buckets for
// sub-millisecond simulated operations.
func LatencyBuckets() []int64 {
	var out []int64
	for decade := int64(1_000); decade <= 10_000_000_000; decade *= 10 {
		out = append(out, decade, 2*decade, 5*decade)
	}
	return out[:len(out)-2] // stop at 1e10 exactly
}

// NewHistogram builds a histogram over the given inclusive upper bounds.
// Bounds must be non-empty and strictly ascending; the bucket layout is
// fixed for the histogram's lifetime.
func NewHistogram(bounds ...int64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("metrics: histogram needs at least one bucket bound")
	}
	if !sort.SliceIsSorted(bounds, func(i, j int) bool { return bounds[i] < bounds[j] }) {
		return nil, fmt.Errorf("metrics: histogram bounds must be strictly ascending")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] == bounds[i-1] {
			return nil, fmt.Errorf("metrics: duplicate histogram bound %d", bounds[i])
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}, nil
}

// MustHistogram is NewHistogram for static bucket layouts.
func MustHistogram(bounds ...int64) *Histogram {
	h, err := NewHistogram(bounds...)
	if err != nil {
		panic(err)
	}
	return h
}

// Observe counts one value. Nil-safe: a nil histogram drops the
// observation.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []int64 // inclusive upper bounds
	Counts []int64 // len(Bounds)+1; last is the overflow bucket
	Count  int64
	Sum    int64
	Min    int64 // zero when Count == 0
	Max    int64 // zero when Count == 0
}

// Mean is Sum/Count, or 0 for an empty histogram.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Snapshot copies the histogram state at once. A nil histogram yields an
// empty snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
	return s
}

// Merge folds other's observations into h without re-observation: bucket
// counts, count, and sum add; min/max combine. Both histograms must share
// the same bucket layout (cluster-wide rollups merge per-node histograms
// built from the same bucket ladder). Nil-safe on both sides: merging a
// nil or empty histogram is a no-op, merging into a nil histogram drops
// the observations.
func (h *Histogram) Merge(other *Histogram) error {
	if h == nil || other == nil {
		return nil
	}
	o := other.Snapshot() // consistent copy; also avoids lock-order issues
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(o.Bounds) != len(h.bounds) {
		return fmt.Errorf("metrics: merge of mismatched histogram layouts (%d vs %d buckets)",
			len(o.Bounds), len(h.bounds))
	}
	for i, b := range h.bounds {
		if o.Bounds[i] != b {
			return fmt.Errorf("metrics: merge of mismatched histogram bound %d vs %d", o.Bounds[i], b)
		}
	}
	if o.Count == 0 {
		return nil
	}
	for i, c := range o.Counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.Min < h.min {
		h.min = o.Min
	}
	if h.count == 0 || o.Max > h.max {
		h.max = o.Max
	}
	h.count += o.Count
	h.sum += o.Sum
	return nil
}

// Quantile returns the q-quantile (0 < q ≤ 1) of the observations by
// exact rank selection over the bucket counts: the result is the
// inclusive upper bound of the bucket containing the ⌈q·count⌉-th
// smallest observation, clamped to [Min, Max] so a histogram whose
// observations all share one bucket reports tight quantiles. An empty
// (or nil) histogram returns 0.
func (h *Histogram) Quantile(q float64) int64 {
	return h.Snapshot().Quantile(q)
}

// Quantile is the snapshot form of Histogram.Quantile, so one Snapshot
// can serve several quantile extractions consistently.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation in sorted order.
	rank := int64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) {
		rank++ // ceil for non-integer products
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			v := s.Max
			if i < len(s.Bounds) {
				v = s.Bounds[i]
			}
			if v > s.Max {
				v = s.Max
			}
			if v < s.Min {
				v = s.Min
			}
			return v
		}
	}
	return s.Max
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// String renders the histogram one bucket per line ("≤bound count"),
// ending with the overflow bucket and a summary line. Empty buckets are
// included so layouts line up across runs.
func (h *Histogram) String() string {
	s := h.Snapshot()
	var b strings.Builder
	for i, bound := range s.Bounds {
		fmt.Fprintf(&b, "≤%-10d %d\n", bound, s.Counts[i])
	}
	if len(s.Counts) > 0 {
		fmt.Fprintf(&b, ">%-10d %d\n", s.Bounds[len(s.Bounds)-1], s.Counts[len(s.Counts)-1])
	}
	fmt.Fprintf(&b, "count=%d sum=%d min=%d max=%d mean=%.1f\n", s.Count, s.Sum, s.Min, s.Max, s.Mean())
	return b.String()
}
