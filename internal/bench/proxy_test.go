package bench

import (
	"runtime/debug"
	"testing"
)

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

// proxyChainAllocsPerChunkBudget bounds the chain pump on a column that
// aliases (the headline library) and on one across a protection
// boundary (in-kernel): the view header RecvPeek returns is the one
// object a chunk may cost. The rest of the budget is what grows with a
// longer run whatever the mode (free lists, histogram buckets): 0.04 on
// the library column, 0.01 in-kernel.
const proxyChainAllocsPerChunkBudget = 1.25

// TestProxyChainAllocBudget gates the chain forwarding pump per chunk it
// forwards: the growth in allocations from a 1 MB to a 3 MB transfer
// over the growth in chunks, so that building the world cancels out.
// The collector is off while it measures, so a pool the collector would
// have emptied does not count. Before a boundary peek landed in pooled
// storage and a boundary chain send lost its gather list, the in-kernel
// column read 3.01 per chunk (the peek's heap buffer, its FromBytes
// header and the gather list beside the view header); the library
// column read 1.04, as now: its send buffer takes every view whole, so
// no chunk there is split.
func TestProxyChainAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run skipped in -short")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, cfg := range []SysConfig{HeadlineConfig(), Columns()[0]} {
		chunks := 0
		run := func(total int) func() {
			return func() {
				r := RunProxy(nil, cfg, "chain", total)
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				chunks = r.Chunks
			}
		}
		const small, large = 1 << 20, 3 << 20
		run(large)() // warm the global buffer pools
		a := testing.AllocsPerRun(2, run(small))
		fewer := chunks
		b := testing.AllocsPerRun(2, run(large))
		perChunk := (b - a) / float64(chunks-fewer)
		t.Logf("%s chain: %.0f → %.0f allocs over %d → %d chunks = %.3f allocs/chunk (budget %.2f)",
			cfg.Name, a, b, fewer, chunks, perChunk, proxyChainAllocsPerChunkBudget)
		if perChunk > proxyChainAllocsPerChunkBudget {
			t.Errorf("%s: the chain pump allocates %.3f objects per chunk; budget is %.2f", cfg.Name, perChunk, proxyChainAllocsPerChunkBudget)
		}
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
