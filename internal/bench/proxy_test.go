package bench

import "testing"

// proxyAllocsPerSegmentBudget bounds the splice forwarding path on the
// headline configuration: the proxy moves every byte by reference, so
// its allocation bill must look like the steady-state TCP budget (the
// two TCP connections), not like a per-byte data path.
const proxyAllocsPerSegmentBudget = 20.0

// TestProxySpliceZeroCopy is the acceptance gate for the chain
// interface: on the splice path the proxy host copies no payload byte
// at the socket layer on any architecture, and on the decomposed
// architecture the aliased chain path is copy-free too.
func TestProxySpliceZeroCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("proxy measurement run skipped in -short")
	}
	const total = 1 << 20
	for _, cfg := range Columns() {
		r := RunProxy(nil, cfg, "splice", total)
		if r.Err != nil {
			t.Fatalf("%s/splice: %v", cfg.Name, r.Err)
		}
		if r.CopiedBytes != 0 {
			t.Errorf("%s/splice: %d bytes copied on the proxy host; splice must copy none", cfg.Name, r.CopiedBytes)
		}
		if r.SplicedBytes != total {
			t.Errorf("%s/splice: spliced %d of %d bytes", cfg.Name, r.SplicedBytes, total)
		}
	}

	library := HeadlineConfig()
	r := RunProxy(nil, library, "chain", total)
	if r.Err != nil {
		t.Fatalf("library/chain: %v", r.Err)
	}
	if r.CopiedBytes != 0 {
		t.Errorf("library/chain: %d bytes copied; the decomposed chain path must alias", r.CopiedBytes)
	}
	// And the flat-buffer loop must show the classic two copies per
	// byte, so the contrast the report records is real.
	r = RunProxy(nil, library, "bsd", total)
	if r.Err != nil {
		t.Fatalf("library/bsd: %v", r.Err)
	}
	if got := r.CopiesPerByte(); got < 1.9 || got > 2.1 {
		t.Errorf("library/bsd: copies/byte = %.3f, want ~2.0", got)
	}
}

// TestProxyAllocBudget gates the splice forwarding workload on a
// per-forwarded-segment allocation ceiling, like the steady-state TCP
// budget: a stray per-chunk allocation in the pump would blow it.
func TestProxyAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run skipped in -short")
	}
	cfg := HeadlineConfig() // Library-SHM-IPF
	segs := 0
	run := func() {
		r := RunProxy(nil, cfg, "splice", 2<<20)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Segments > 0 {
			segs = r.Segments
		}
	}
	run() // warm the global buffer pools

	allocs := testing.AllocsPerRun(3, run)
	if segs == 0 {
		t.Fatal("no forwarded segments observed")
	}
	perSeg := allocs / float64(segs)
	t.Logf("proxy splice: %.0f allocs/run over %d segments = %.2f allocs/segment (budget %.0f)",
		allocs, segs, perSeg, proxyAllocsPerSegmentBudget)
	if perSeg > proxyAllocsPerSegmentBudget {
		t.Fatalf("splice path allocates %.2f objects/segment; budget is %.0f", perSeg, proxyAllocsPerSegmentBudget)
	}
}

// TestProxyDeterminism runs every (config, mode) cell twice and
// requires identical virtual-time results and accounting. Run under
// -count=2 in CI it also crosses process reuse.
func TestProxyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism re-run skipped in -short")
	}
	const total = 512 << 10
	for _, cfg := range Columns() {
		for _, mode := range ProxyModes {
			a := RunProxy(nil, cfg, mode, total)
			b := RunProxy(nil, cfg, mode, total)
			if a.Err != nil || b.Err != nil {
				t.Fatalf("%s/%s: %v / %v", cfg.Name, mode, a.Err, b.Err)
			}
			if a != b {
				t.Errorf("%s/%s not deterministic:\n  run1 %+v\n  run2 %+v", cfg.Name, mode, a, b)
			}
		}
	}
}

// TestProxySuiteRuns smoke-tests the report generator on a tiny
// transfer: every cell completes with sane numbers.
func TestProxySuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke run skipped in -short")
	}
	rows, err := RunProxySuite(nil, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Columns())*len(ProxyModes) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, m := range rows {
		if m.KBps <= 0 {
			t.Errorf("%s/%s: KBps = %v", m.Config, m.Mode, m.KBps)
		}
		if m.Mode == "splice" && m.CopiesPerByte != 0 {
			t.Errorf("%s/splice: copies/byte = %v", m.Config, m.CopiesPerByte)
		}
	}
}
