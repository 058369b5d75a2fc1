package metrics

import (
	"math"
	"math/rand"
	"slices"
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

// buckets lays h's window out over the full bucket layout.
func buckets(h *Histogram) (all [histBuckets]uint64) {
	copy(all[h.lo:], h.counts)
	return all
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
		return buckets(ha) == buckets(hc)
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

// refHist is the full-layout model the windowed Histogram must agree
// with: all 496 buckets from the start, the same arithmetic otherwise.
type refHist struct {
	counts               [histBuckets]uint64
	count, sum, min, max uint64
}

func (r *refHist) observe(v int64) {
	u := uint64(max(v, 0))
	if r.count == 0 {
		r.min = u
	}
	r.min, r.max = min(r.min, u), max(r.max, u)
	r.count++
	r.sum += u
	r.counts[bucketOf(u)]++
}

func (r *refHist) merge(o *refHist) {
	if o.count == 0 {
		return
	}
	if r.count == 0 {
		r.min = o.min
	}
	r.min, r.max = min(r.min, o.min), max(r.max, o.max)
	r.count += o.count
	r.sum += o.sum
	for i, c := range o.counts {
		r.counts[i] += c
	}
}

func (r *refHist) quantile(q float64) uint64 {
	if r.count == 0 {
		return 0
	}
	rank := min(max(uint64(math.Ceil(q*float64(r.count))), 1), r.count)
	var cum uint64
	for i, c := range r.counts {
		if cum += c; cum >= rank {
			return max(min(bucketUpper(i), r.max), r.min)
		}
	}
	return r.max
}

func (r *refHist) view() HistView {
	if r.count == 0 {
		return HistView{}
	}
	return HistView{r.count, r.sum, r.min, r.max, r.quantile(0.50), r.quantile(0.90), r.quantile(0.99)}
}

// agree fails unless h and its model hold the same buckets and answer
// every accessor alike.
func agree(t *testing.T, h *Histogram, r *refHist) {
	t.Helper()
	if buckets(h) != r.counts {
		t.Fatalf("window [%d, %d) holds other buckets than the full layout", h.lo, h.lo+len(h.counts))
	}
	if h.View() != r.view() {
		t.Fatalf("view %+v, want %+v", h.View(), r.view())
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		if got, want := h.Quantile(q), r.quantile(q); got != want {
			t.Fatalf("q%v = %d, want %d", q, got, want)
		}
	}
}

// TestHistogramMatchesFullLayout drives windowed histograms and the
// full-layout model through the same random samples and merges. The
// samples include 0, negatives (clamped), MaxInt64 and values that push
// a window to either end of the layout; they arrive ascending,
// descending or shuffled, so windows grow upward and downward; and the
// merges take in disjoint, nested, overlapping and empty windows. The
// test fails unless each of those cases occurred.
func TestHistogramMatchesFullLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]int{}
	window := func(h *Histogram) (int, int) { return h.lo, h.lo + len(h.counts) }
	for trial := 0; trial < 400; trial++ {
		var hs [4]*Histogram
		var refs [4]*refHist
		for k := range hs {
			hs[k], refs[k] = &Histogram{}, &refHist{}
			lo := rng.Intn(63)
			hi := lo + 1 + rng.Intn(min(5, 63-lo))
			edges := rng.Intn(3) == 0
			vs := make([]int64, rng.Intn(40)) // none: an empty histogram
			for i := range vs {
				switch r := rng.Intn(12); {
				case edges && r == 0:
					vs[i] = 0
				case edges && r == 1:
					vs[i] = -1 - rng.Int63n(1<<20)
				case edges && r == 2:
					vs[i] = math.MaxInt64 - rng.Int63n(16)
				default:
					e := lo + rng.Intn(hi-lo)
					vs[i] = 1<<e | rng.Int63n(1<<e)
				}
			}
			switch rng.Intn(3) {
			case 0:
				slices.Sort(vs)
			case 1:
				slices.Sort(vs)
				slices.Reverse(vs)
			}
			for _, v := range vs {
				wlo, whi := window(hs[k])
				hs[k].Observe(v)
				refs[k].observe(v)
				if nlo, nhi := window(hs[k]); whi > wlo && nlo < wlo {
					seen["grew down"]++
				} else if whi > wlo && nhi > whi {
					seen["grew up"]++
				}
				agree(t, hs[k], refs[k])
			}
		}
		for m := 0; m < 6; m++ {
			a, b := rng.Intn(4), rng.Intn(4)
			if a == b {
				continue
			}
			alo, ahi := window(hs[a])
			blo, bhi := window(hs[b])
			switch {
			case hs[a].Count() == 0 || hs[b].Count() == 0:
				seen["empty"]++
			case bhi <= alo || ahi <= blo:
				seen["disjoint"]++
			case alo <= blo && bhi <= ahi, blo <= alo && ahi <= bhi:
				seen["nested"]++
			default:
				seen["overlapping"]++
			}
			hs[a].Merge(hs[b])
			refs[a].merge(refs[b])
			agree(t, hs[a], refs[a])
			agree(t, hs[b], refs[b])
		}
	}
	for _, c := range []string{"grew down", "grew up", "empty", "disjoint", "nested", "overlapping"} {
		if seen[c] == 0 {
			t.Fatalf("no %s case was drawn: %v", c, seen)
		}
	}
}

// TestHistogramWindowBytes pins what a histogram holds: samples within
// one octave, in any order, fit in 16 buckets, and once they have been
// seen Observe allocates nothing.
func TestHistogramWindowBytes(t *testing.T) {
	for e := 4; e < 63; e++ {
		step := int64(1) << (e - 3)
		octave := make([]int64, histSubBuckets)
		for k := range octave {
			octave[k] = int64(1)<<e + int64(k)*step
		}
		for first := range octave {
			for _, reverse := range []bool{false, true} {
				h := &Histogram{}
				h.Observe(octave[first])
				for k := range octave {
					if reverse {
						k = len(octave) - 1 - k
					}
					h.Observe(octave[k] + step - 1)
				}
				if len(h.counts) > 16 {
					t.Fatalf("octave %d, first sample %d: window of %d buckets, want at most 16", e, first, len(h.counts))
				}
				if n := testing.AllocsPerRun(10, func() {
					for _, v := range octave {
						h.Observe(v)
					}
				}); n != 0 {
					t.Fatalf("octave %d: a steady Observe allocated %v times", e, n)
				}
			}
		}
	}
}
