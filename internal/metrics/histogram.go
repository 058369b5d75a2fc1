package metrics

import (
	"math"
	"math/bits"
)

// Histogram bucket layout: HDR-style log-linear. Values 0..15 get exact
// buckets; above that, each power-of-two octave is split into 8
// sub-buckets, so any reported quantile is within 12.5% of the true
// sample value. 60 octaves of 8 sub-buckets after the 16 exact ones
// cover the full uint64 range in 496 buckets. A histogram holds only a
// window of them: none until its first sample, which allocates the 8
// around itself (fewer at the layout's ends); a sample outside the
// window widens it by what it needs plus half the window on that side. Samples within one octave fit in
// 16 buckets, and a steady Observe allocates nothing.
const (
	histLinearMax  = 16 // values below this index themselves
	histSubBuckets = 8  // sub-buckets per octave above the linear range
	histBuckets    = 496
)

// Histogram records a distribution of non-negative int64 samples
// (virtual-clock durations in nanoseconds, queue depths, batch sizes).
// The zero value is ready to use; all methods are nil-safe so disabled
// metrics cost one nil check per Observe.
type Histogram struct {
	counts     []uint64 // buckets lo .. lo+len(counts)-1; nil until the first sample
	lo         int
	count, sum uint64
	min, max   uint64
}

// bucketOf maps a sample to its bucket index.
func bucketOf(u uint64) int {
	if u < histLinearMax {
		return int(u)
	}
	e := bits.Len64(u) - 1 // highest set bit; >= 4 here
	// Mantissa: the 3 bits below the leading bit select the sub-bucket.
	return histLinearMax + (e-4)*histSubBuckets + int(u>>(uint(e)-3)) - histSubBuckets
}

// bucketUpper returns the largest sample value a bucket can hold.
func bucketUpper(i int) uint64 {
	if i < histLinearMax {
		return uint64(i)
	}
	b := i - histLinearMax
	e := b/histSubBuckets + 4
	m := uint64(b%histSubBuckets + histSubBuckets)
	return (m+1)<<(uint(e)-3) - 1
}

// Observe records one sample. Negative samples clamp to zero (they can
// only arise from virtual-clock arithmetic bugs; clamping keeps the
// accounting total intact while the bug is found).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	u := uint64(max(v, 0))
	if h.counts == nil { // the first sample
		h.min = u
	}
	h.min, h.max = min(h.min, u), max(h.max, u)
	h.count++
	h.sum += u
	b := bucketOf(u)
	if uint(b-h.lo) >= uint(len(h.counts)) {
		h.cover(b, b+1)
	}
	h.counts[b-h.lo]++
}

// cover widens the window to hold buckets [lo, hi): on each side that
// grows, by what they need plus half the current width, within the
// layout. An empty histogram takes [lo-4, max(lo+4, hi)): for one
// sample, the 8 buckets around it.
func (h *Histogram) cover(lo, hi int) {
	newLo, newHi := lo-4, max(lo+4, hi)
	if w := len(h.counts); w > 0 {
		newLo, newHi = h.lo, h.lo+w
		if lo < newLo {
			newLo = lo - w/2
		}
		if hi > newHi {
			newHi = hi + w/2
		}
	}
	newLo, newHi = max(newLo, 0), min(newHi, histBuckets)
	counts := make([]uint64, newHi-newLo)
	if h.counts != nil {
		copy(counts[h.lo-newLo:], h.counts)
	}
	h.counts, h.lo = counts, newLo
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() uint64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1): the
// bucket boundary at or above the sample of that rank, clamped to the
// observed [min, max]. The bound is within 12.5% of the true sample.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := min(max(uint64(math.Ceil(q*float64(h.count))), 1), h.count)
	var cum uint64
	for i, c := range h.counts {
		if cum += c; cum >= rank {
			return max(min(bucketUpper(h.lo+i), h.max), h.min)
		}
	}
	return h.max
}

// Merge folds other's samples into h (bucket-wise; exact for counts and
// sums, bound-preserving for quantiles), widening h's window to cover
// other's.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil || other.count == 0 {
		return
	}
	if h.counts == nil {
		h.min = other.min
	}
	h.min, h.max = min(h.min, other.min), max(h.max, other.max)
	h.count += other.count
	h.sum += other.sum
	if lo, hi := other.lo, other.lo+len(other.counts); lo < h.lo || hi > h.lo+len(h.counts) {
		h.cover(lo, hi)
	}
	for i, c := range other.counts {
		h.counts[other.lo-h.lo+i] += c
	}
}

// HistView is a rendered summary of a histogram at snapshot time.
type HistView struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
}

// View summarizes the histogram for snapshots.
func (h *Histogram) View() HistView {
	if h == nil {
		return HistView{}
	}
	return HistView{
		Count: h.count,
		Sum:   h.sum,
		Min:   h.Min(),
		Max:   h.max,
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}
