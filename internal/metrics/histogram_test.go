package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBucketRoundTrip(t *testing.T) {
	// Every bucket's upper bound must map back to that bucket, and the
	// next value must map to the next bucket.
	for i := 0; i < histBuckets; i++ {
		u := bucketUpper(i)
		if got := bucketOf(u); got != i {
			t.Fatalf("bucketOf(bucketUpper(%d)=%d) = %d", i, u, got)
		}
		if u < math.MaxUint64 && i < histBuckets-1 {
			if got := bucketOf(u + 1); got != i+1 {
				t.Fatalf("bucketOf(%d) = %d, want %d", u+1, got, i+1)
			}
		}
	}
	if bucketOf(math.MaxUint64) != histBuckets-1 {
		t.Fatalf("MaxUint64 lands in bucket %d, want %d", bucketOf(math.MaxUint64), histBuckets-1)
	}
}

// oracle computes the exact q-quantile of samples by sorting.
func oracleQuantile(samples []uint64, q float64) uint64 {
	s := append([]uint64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// TestQuantileVsOracle quickchecks Quantile against a sorted-slice
// oracle: the histogram's answer must be >= the true sample and within
// 12.5% relative error (the sub-bucket resolution guarantee).
func TestQuantileVsOracle(t *testing.T) {
	qs := []float64{0.01, 0.25, 0.50, 0.90, 0.99, 1.0}
	f := func(raw []uint32, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		h := &Histogram{}
		samples := make([]uint64, 0, len(raw))
		for _, r := range raw {
			// Spread samples across many octaves, not just 32-bit range.
			v := uint64(r) << uint(rng.Intn(24))
			samples = append(samples, v)
			h.Observe(int64(v))
		}
		for _, q := range qs {
			want := oracleQuantile(samples, q)
			got := h.Quantile(q)
			if got < want {
				t.Logf("q=%v: got %d < true %d", q, got, want)
				return false
			}
			// Upper bound within 12.5% of the true sample.
			if float64(got) > float64(want)*1.125+1 {
				t.Logf("q=%v: got %d > 1.125*true %d", q, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeEqualsCombined quickchecks that merging two histograms gives
// the same state as observing all samples into one.
func TestMergeEqualsCombined(t *testing.T) {
	f := func(a, b []uint32) bool {
		ha, hb, hc := &Histogram{}, &Histogram{}, &Histogram{}
		for _, v := range a {
			ha.Observe(int64(v))
			hc.Observe(int64(v))
		}
		for _, v := range b {
			hb.Observe(int64(v))
			hc.Observe(int64(v))
		}
		ha.Merge(hb)
		if ha.count != hc.count || ha.sum != hc.sum || ha.Min() != hc.Min() || ha.max != hc.max {
			return false
		}
		return ha.counts == hc.counts || (ha.counts != nil && hc.counts != nil && *ha.counts == *hc.counts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should read zero")
	}
	for _, v := range []int64{5, 5, 10, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1120 || h.Min() != 5 || h.Max() != 1000 {
		t.Fatalf("count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); got != 10 {
		t.Fatalf("p50 = %d, want 10 (exact: linear bucket)", got)
	}
	if got := h.Quantile(1.0); got != 1000 {
		t.Fatalf("p100 = %d, want clamp to max 1000", got)
	}
	h.Observe(-7) // clamps to 0
	if h.Min() != 0 || h.Count() != 6 {
		t.Fatalf("negative sample should clamp to 0: min=%d count=%d", h.Min(), h.Count())
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(42)
	h.Merge(&Histogram{})
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.View() != (HistView{}) {
		t.Fatal("nil histogram must be inert")
	}
}
