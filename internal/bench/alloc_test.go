package bench

import (
	"runtime"
	"testing"
)

// Steady-state allocation budget for the TCP hot path. The seed tree spent
// ~69 heap allocations per transmitted segment on the Library ttcp
// workload; the pooled mbuf/checksum/event hot path brings that under 6.
// The budget below is deliberately loose (pool warm-up, world
// construction, and map growth all amortize differently across machines)
// but pins the order of magnitude: a regression back to per-packet
// allocation would blow through it immediately.
const allocsPerSegmentBudget = 15.0

// streamAllocsPerSegment is what the stream allocation gates measure:
// the flat-out 2 MB transfer on cfg, world construction included, with
// or without a registry, in heap allocations per segment host A
// transmitted. One unmeasured run warms the global buffer pools first.
func streamAllocsPerSegment(t *testing.T, cfg SysConfig, reg bool) float64 {
	t.Helper()
	segs := 0
	run := func() {
		w := streamWorld(nil, cfg, reg)
		if (w.Reg != nil) != reg {
			t.Fatalf("world has registry %v, want %v: a process default leaked in", w.Reg != nil, reg)
		}
		if r := runStreamOn(w, "ttcp", cfg.RcvBufKB, 2<<20, 0); r.Err != nil {
			t.Fatal(r.Err)
		}
		segs = int(w.a.Kern().NIC.TxFrames.Value())
	}
	run()
	allocs := testing.AllocsPerRun(3, run)
	if segs == 0 {
		t.Fatal("no transmitted segments observed")
	}
	perSeg := allocs / float64(segs)
	t.Logf("%s, registry %v: %.0f allocs/run over %d segments = %.2f allocs/segment",
		cfg.Name, reg, allocs, segs, perSeg)
	return perSeg
}

// TestSteadyStateTCPAllocBudget runs the paper's headline configuration
// (Library-SHM-IPF) end to end — sender stack, wire, receiver stack,
// ack path — and asserts the whole run stays inside the per-segment
// allocation budget.
func TestSteadyStateTCPAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run skipped in -short")
	}
	if perSeg := streamAllocsPerSegment(t, HeadlineConfig(), false); perSeg > allocsPerSegmentBudget {
		t.Fatalf("TCP hot path allocates %.2f objects/segment; budget is %.0f", perSeg, allocsPerSegmentBudget)
	}
}

// Heap bytes per delivered payload byte on the same run. Before frames
// came from mbuf's pools every segment allocated its frame, and the run
// measured 1.31 bytes per payload byte; pooled, it measures 0.22. The
// budget leaves headroom for pool warm-up across machines, and a return
// to a fresh frame per segment fails it.
const bytesPerPayloadByteBudget = 0.5

// TestSteadyStateTCPBytesBudget runs the headline configuration's 2 MB
// transfer, world construction included, and gates the heap bytes it
// allocates per payload byte delivered.
func TestSteadyStateTCPBytesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run skipped in -short")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; heap bytes are not meaningful")
	}
	cfg := HeadlineConfig()
	const total, runs = 2 << 20, 3
	run := func() {
		if r := runStreamOn(streamWorld(nil, cfg, false), "ttcp", cfg.RcvBufKB, total, 0); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	run() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / total
	t.Logf("%s: %.3f heap bytes per payload byte", cfg.Name, perByte)
	if perByte > bytesPerPayloadByteBudget {
		t.Fatalf("TCP data path allocates %.3f heap bytes per payload byte; budget is %.2f", perByte, bytesPerPayloadByteBudget)
	}
}
