package metrics

import "math/bits"

// subBits is log2 of the sub-buckets per power of two: values below
// 1<<subBits are counted exactly, and every [2^k, 2^(k+1)) above that
// splits into 1<<subBits equal buckets, each at most 1/32 of its lower
// bound wide.
const subBits = 5

// nBuckets covers every non-negative int64: 32 exact values plus 32
// sub-buckets for each of the 58 powers of two from 2^5 to 2^62.
const nBuckets = (64 - subBits) << subBits

// Histogram is a fixed log-linear histogram of non-negative values
// (negative ones count as 0): 1 888 buckets, 15 136 bytes, ready to use
// at its zero value. It has no lock of its own; its owner serialises
// access (the telemetry registry observes under its own mutex, the
// workload driver from its one goroutine), and a plain copy is a
// consistent snapshot.
type Histogram struct {
	buckets  [nBuckets]int64
	n, total int64
	min, max int64
}

// bucketOf maps v ≥ 0 to its bucket: v itself below 64 (where buckets
// are one wide), else the top subBits+1 bits of v offset by its power
// of two.
func bucketOf(v int64) int {
	shift := bits.Len64(uint64(v)) - subBits - 1
	if shift <= 0 {
		return int(v)
	}
	return shift<<subBits + int(v>>shift)
}

// midpoint is the middle of bucket i's value range.
func midpoint(i int) int64 {
	shift := i>>subBits - 1
	if shift <= 0 {
		return int64(i)
	}
	lo := int64(i&(1<<subBits-1)|1<<subBits) << shift
	return lo + (int64(1)<<shift-1)/2
}

// Observe counts one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.total += v
}

// Mean is the exact mean of the observed values, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.total) / float64(h.n)
}

// Max is the largest observed value, or 0 when empty.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the q-quantile (0 < q ≤ 1): the midpoint of the
// bucket holding the ⌈q·n⌉-th smallest value, clamped to [min, max].
// It is within 1/64 of that value, and exact below 64. An empty
// histogram, or q ≤ 0, returns 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 || q <= 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++ // ceil for non-integer products
	}
	rank = min(max(rank, 1), h.n)
	var cum int64
	for i, c := range h.buckets {
		if cum += c; cum >= rank {
			return min(max(midpoint(i), h.min), h.max)
		}
	}
	return h.max
}
