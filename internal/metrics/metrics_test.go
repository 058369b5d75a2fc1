package metrics

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var sc *Scope
	if sc.Sub("x") != nil || sc.NewCounter("c") != nil || sc.Histogram("h") != nil {
		t.Fatal("nil scope must return nil instruments")
	}
	sc.Counter("c", &Counter{})
	sc.GaugeFunc("f", func() int64 { return 1 })
	var r *Registry
	if r.Scope("x") != nil {
		t.Fatal("nil registry must return nil scope")
	}
	if s := r.Snapshot(0); len(s.Items) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if r.MergedHistogram(".x") != nil {
		t.Fatal("nil registry must return nil merged histogram")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	host := r.Scope("host.alpha")
	var rx Counter
	rx.Add(7)
	host.Sub("nic").Counter("rx_frames", &rx)
	host.GaugeFunc("queue_depth", func() int64 { return 3 })
	host.GaugeFunc("sessions", func() int64 { return 11 })
	h := host.Histogram("rtt_ns")
	h.Observe(100)
	h.Observe(200)

	s := r.Snapshot(5 * time.Second)
	if s.At != 5*time.Second {
		t.Fatalf("At = %v", s.At)
	}
	wantNames := []string{
		"host.alpha.nic.rx_frames",
		"host.alpha.queue_depth",
		"host.alpha.rtt_ns",
		"host.alpha.sessions",
	}
	if len(s.Items) != len(wantNames) {
		t.Fatalf("items = %d, want %d", len(s.Items), len(wantNames))
	}
	for i, n := range wantNames {
		if s.Items[i].Name != n {
			t.Fatalf("item %d = %q, want %q (sorted order)", i, s.Items[i].Name, n)
		}
	}
	if it, _ := s.Get("host.alpha.nic.rx_frames"); it.Value != 7 {
		t.Fatalf("rx_frames = %d", it.Value)
	}
	if it, _ := s.Get("host.alpha.sessions"); it.Value != 11 {
		t.Fatalf("gauge func = %d", it.Value)
	}
	if it, _ := s.Get("host.alpha.rtt_ns"); it.Hist == nil || it.Hist.Count != 2 {
		t.Fatalf("hist view = %+v", it.Hist)
	}
	// Increment after snapshot; old snapshot must not change.
	rx.Inc()
	if it, _ := s.Get("host.alpha.nic.rx_frames"); it.Value != 7 {
		t.Fatal("snapshot must be a copy")
	}
}

func TestDuplicateNamesGetSuffix(t *testing.T) {
	names := func(s Snapshot) []string {
		var names []string
		for _, it := range s.Items {
			names = append(names, it.Name)
		}
		return names
	}
	r := NewRegistry()
	sc := r.Scope("host.a")
	sc.NewCounter("x")
	sc.NewCounter("x")
	sc.NewCounter("x")
	if got, want := names(r.Snapshot(0)), []string{"host.a.x", "host.a.x#2", "host.a.x#3"}; !slices.Equal(got, want) {
		t.Fatalf("names = %v, want %v", got, want)
	}

	// A name taken explicitly is skipped by the suffixes: the first "x"
	// keeps its name and the second gets the next free one.
	r = NewRegistry()
	sc = r.Scope("host.a")
	sc.NewCounter("x#2").Add(2)
	sc.NewCounter("x").Add(1)
	sc.NewCounter("x").Add(3)
	s := r.Snapshot(0)
	if got, want := names(s), []string{"host.a.x", "host.a.x#2", "host.a.x#3"}; !slices.Equal(got, want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i, want := range []int64{1, 2, 3} {
		if s.Items[i].Value != want {
			t.Fatalf("%s = %d, want %d (suffixes follow registration order)", s.Items[i].Name, s.Items[i].Value, want)
		}
	}

	// MergedHistogram matches the snapshot's names: a suffixed duplicate
	// does not end in ".h".
	r = NewRegistry()
	sc = r.Scope("host.a")
	sc.Histogram("h").Observe(10)
	sc.Histogram("h").Observe(20)
	r.Scope("host.b").Histogram("h").Observe(40)
	if m := r.MergedHistogram(".h"); m.Count() != 2 || m.Sum() != 50 {
		t.Fatalf("merged count=%d sum=%d, want 2 and 50 (host.a.h#2 skipped)", m.Count(), m.Sum())
	}

	// A second snapshot of an unchanged registry builds no names: it
	// allocates its items and its histogram views, nothing else.
	first := r.Snapshot(0)
	var second Snapshot
	if n := testing.AllocsPerRun(10, func() { second = r.Snapshot(0) }); n > 2 {
		t.Fatalf("second snapshot made %v allocations, want at most 2", n)
	}
	for i := range first.Items {
		if unsafe.StringData(first.Items[i].Name) != unsafe.StringData(second.Items[i].Name) {
			t.Fatalf("%s was built again", second.Items[i].Name)
		}
	}
	// A registration after a snapshot is named by the next one.
	sc.Histogram("h")
	if got, want := names(r.Snapshot(0)), []string{"host.a.h", "host.a.h#2", "host.a.h#3", "host.b.h"}; !slices.Equal(got, want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
}

// TestRegisterAllocates pins registration as allocation-free per
// instrument: records live in blocks that are never regrown, and no
// name is built until a snapshot.
func TestRegisterAllocates(t *testing.T) {
	const n = 10000
	counters := make([]Counter, n)
	names := make([]string, n)
	for i := range names {
		names[i] = "c" + strconv.Itoa(i)
	}
	fn := func() int64 { return 1 }
	allocs := testing.AllocsPerRun(5, func() {
		sc := NewRegistry().Scope("host.a").Sub("stack")
		for i := range counters {
			sc.Counter(names[i], &counters[i])
			sc.GaugeFunc(names[i], fn)
		}
	})
	if per := allocs / (2 * n); per > 0.05 {
		t.Fatalf("%.0f allocations for %d instruments: %.4f each, want at most 0.05", allocs, 2*n, per)
	}
}

// TestNameCacheBytes pins what the first snapshot keeps: the names in
// one buffer, and 8 bytes per instrument beyond them (an end offset and
// a place in snapshot order), measured as live heap after a collection.
// The three buffers round up to whole pages and the live heap moves by a
// few KiB on its own, so 64 KiB of slack is allowed: the 24-byte records
// of a per-instrument name cache would exceed it 12 times over.
func TestNameCacheBytes(t *testing.T) {
	const n = 50000
	r := NewRegistry()
	sc := r.Scope("host.a").Sub("stack")
	counters := make([]Counter, n)
	for i := range counters {
		sc.Counter("c"+strconv.Itoa(n-i), &counters[i])
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second empties the sync.Pool caches the first kept
	runtime.ReadMemStats(&before)
	r.Snapshot(0)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	var names int64
	for _, it := range r.Snapshot(0).Items {
		names += int64(len(it.Name))
	}
	t.Logf("the name cache holds %d B: %d B of names and %.2f B per instrument", held, names, float64(held-names)/n)
	if held > names+8*n+64<<10 {
		t.Fatalf("the name cache holds %d B, want at most %d B of names + 8 B per instrument + 64 KiB", held, names)
	}
}

// TestEmptyHistogramAllocatesNoBuckets: a histogram nothing observes
// holds no bucket array, and renders as an all-zero summary.
func TestEmptyHistogramAllocatesNoBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Scope("n").Histogram("h")
	s := r.Snapshot(0)
	r.MergedHistogram(".h")
	if h.counts != nil {
		t.Fatal("an unobserved histogram allocated its buckets")
	}
	var text, js, prom bytes.Buffer
	if err := WriteText(&text, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&js, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&prom, s); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ got, want string }{
		{text.String(), "# at 0\nn.h.count 0\nn.h.sum 0\nn.h.min 0\nn.h.max 0\nn.h.p50 0\nn.h.p90 0\nn.h.p99 0\n"},
		{js.String(), `{
  "at_ns": 0,
  "items": [
    {
      "name": "n.h",
      "kind": "histogram",
      "value": 0,
      "hist": {
        "count": 0,
        "sum": 0,
        "min": 0,
        "max": 0,
        "p50": 0,
        "p90": 0,
        "p99": 0
      }
    }
  ]
}
`},
		{prom.String(), "# TYPE psd_n_h summary\npsd_n_h{quantile=\"0.5\"} 0\npsd_n_h{quantile=\"0.9\"} 0\npsd_n_h{quantile=\"0.99\"} 0\npsd_n_h_sum 0\npsd_n_h_count 0\n"},
	} {
		if c.got != c.want {
			t.Fatalf("rendered\n%s\nwant\n%s", c.got, c.want)
		}
	}
	h.Observe(7)
	if h.counts == nil || h.Quantile(0.5) != 7 {
		t.Fatal("the first sample must allocate the buckets")
	}
}

// TestDelta reads the change between two snapshots of one registry: the
// second snapshot reuses the first one's names but reads live values.
func TestDelta(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope("n")
	c := sc.NewCounter("c")
	var g int64
	sc.GaugeFunc("g", func() int64 { return g })
	h := sc.Histogram("h")
	c.Add(10)
	g = 5
	h.Observe(100)
	prev := r.Snapshot(time.Second)
	c.Add(3)
	g = 9
	h.Observe(200)
	cur := r.Snapshot(2 * time.Second)
	delta := func(name string) (Item, Item) {
		p, _ := prev.Get(name)
		c, ok := cur.Get(name)
		if !ok {
			t.Fatalf("%s missing from the second snapshot", name)
		}
		return p, c
	}
	if p, c := delta("n.c"); c.Value-p.Value != 3 {
		t.Fatalf("counter delta = %d", c.Value-p.Value)
	}
	if p, c := delta("n.g"); p.Value != 5 || c.Value != 9 {
		t.Fatalf("gauge func read %d then %d, want 5 then 9", p.Value, c.Value)
	}
	if p, c := delta("n.h"); c.Hist.Count-p.Hist.Count != 1 || c.Hist.Sum-p.Hist.Sum != 200 {
		t.Fatalf("hist delta: %+v then %+v", p.Hist, c.Hist)
	}
}

func TestSumAndMergedHistogram(t *testing.T) {
	r := NewRegistry()
	for _, hn := range []string{"host.a", "host.b"} {
		sc := r.Scope(hn)
		sc.NewCounter("tcp_rexmit").Add(2)
		h := sc.Histogram("connect_ns")
		h.Observe(1000)
	}
	s := r.Snapshot(0)
	if got := s.Sum(".tcp_rexmit"); got != 4 {
		t.Fatalf("Sum = %d", got)
	}
	if got := s.SumUnder("host.b.", ".tcp_rexmit"); got != 2 {
		t.Fatalf("SumUnder(host.b.) = %d, want 2", got)
	}
	m := r.MergedHistogram(".connect_ns")
	if m.Count() != 2 || m.Sum() != 2000 {
		t.Fatalf("merged count=%d sum=%d", m.Count(), m.Sum())
	}
}

func TestRenderingsStable(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		sc := r.Scope("host.alpha")
		sc.NewCounter("nic.rx_frames").Add(42)
		sc.GaugeFunc("balance", func() int64 { return -3 })
		h := sc.Histogram("rtt_ns")
		h.Observe(150)
		h.Observe(250)
		return r.Snapshot(time.Millisecond)
	}
	var t1, j1, p1, t2, j2, p2 bytes.Buffer
	s1, s2 := build(), build()
	for _, step := range []struct {
		w *bytes.Buffer
		s Snapshot
		f func(w *bytes.Buffer, s Snapshot) error
	}{
		{&t1, s1, func(w *bytes.Buffer, s Snapshot) error { return WriteText(w, s) }},
		{&t2, s2, func(w *bytes.Buffer, s Snapshot) error { return WriteText(w, s) }},
		{&j1, s1, func(w *bytes.Buffer, s Snapshot) error { return WriteJSON(w, s) }},
		{&j2, s2, func(w *bytes.Buffer, s Snapshot) error { return WriteJSON(w, s) }},
		{&p1, s1, func(w *bytes.Buffer, s Snapshot) error { return WriteProm(w, s) }},
		{&p2, s2, func(w *bytes.Buffer, s Snapshot) error { return WriteProm(w, s) }},
	} {
		if err := step.f(step.w, step.s); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("text rendering not byte-stable")
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("JSON rendering not byte-stable")
	}
	if !bytes.Equal(p1.Bytes(), p2.Bytes()) {
		t.Fatal("prom rendering not byte-stable")
	}
	text := t1.String()
	for _, want := range []string{
		"host.alpha.balance -3\n",
		"host.alpha.nic.rx_frames 42\n",
		"host.alpha.rtt_ns.count 2\n",
		"host.alpha.rtt_ns.p99 ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("text missing %q in:\n%s", want, text)
		}
	}
	prom := p1.String()
	for _, want := range []string{
		"# TYPE psd_host_alpha_nic_rx_frames counter\n",
		"psd_host_alpha_rtt_ns{quantile=\"0.5\"} ",
		"psd_host_alpha_rtt_ns_count 2\n",
		"# TYPE psd_host_alpha_balance gauge\n",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prom missing %q in:\n%s", want, prom)
		}
	}
}

// TestGaugesFillOncePerSnapshot: a gauge set reads, name for name, what a
// GaugeFunc per name reads (kinds, names, #k suffixes and values), across
// two sets whose names interleave in snapshot order beside other
// instruments, and each set's fill runs once per snapshot.
func TestGaugesFillOncePerSnapshot(t *testing.T) {
	state := []int64{4, -1, 9, 0, 7}
	names := [2][]string{{"a", "tcp_state.c", "e"}, {"b", "tcp_state.d"}}
	pick := [2][]int{{0, 2, 4}, {1, 3}} // the state each set's names read
	var fills [2]int
	build := func(sets bool) *Registry {
		r := NewRegistry()
		var c Counter
		c.Add(5)
		for _, host := range []string{"h", "h"} { // the second scope's names take #2
			sc := r.Scope(host)
			sc.Counter("c", &c)
			for k := range names {
				if sets {
					sc.Gauges(names[k], func(v []int64) {
						fills[k]++
						for i, j := range pick[k] {
							v[i] = state[j]
						}
					})
				} else {
					for i, name := range names[k] {
						sc.GaugeFunc(name, func() int64 { return state[pick[k][i]] })
					}
				}
			}
			sc.Histogram("hist").Observe(3)
		}
		return r
	}
	model, got := build(false), build(true)
	for snap := 1; snap <= 3; snap++ {
		state[snap] += int64(10 * snap)
		want, have := model.Snapshot(0), got.Snapshot(0)
		if !slices.EqualFunc(want.Items, have.Items, func(a, b Item) bool {
			return a.Name == b.Name && a.Kind == b.Kind && a.Value == b.Value
		}) {
			t.Fatalf("snapshot %d: sets read\n%v\nwant\n%v", snap, have.Items, want.Items)
		}
		if fills != [2]int{2 * snap, 2 * snap} { // two scopes, each with both sets
			t.Fatalf("after %d snapshots the fills ran %v times, want %d each", snap, fills, 2*snap)
		}
	}
	var nilScope *Scope
	nilScope.Gauges(names[0], func([]int64) { t.Fatal("a nil scope's set was filled") })
}
