package bench

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
)

// TestTSOUnderFaultRetransmits is the TSO-under-fault regression: when
// the wire drops a frame the engine sliced out of a super-segment, the
// sender's stack must retransmit it from the chain-holding send queue
// and the transfer must still complete byte-perfect.
func TestTSOUnderFaultRetransmits(t *testing.T) {
	cfg := OffloadConfig()
	w := streamWorld(nil, cfg, true)
	w.Seg.Faults().SetDefaultRates(fault.Rates{Drop: 0.03})
	res := runStreamOn(w, "ttcp", cfg.RcvBufKB, 256<<10, 0)
	if res.Err != nil {
		t.Fatalf("lossy transfer failed: %v", res.Err)
	}
	if res.Bytes != 256<<10 {
		t.Fatalf("received %d bytes, want %d", res.Bytes, 256<<10)
	}
	snap := w.Reg.Snapshot(w.Sim.Now().Duration())
	if v := snap.Sum(".offload.tso_super"); v == 0 {
		t.Fatalf("no TSO super-segments — the fault path never exercised slicing")
	}
	if v := snap.Sum(".tcp_rexmit") + snap.Sum(".tcp_fast_rexmit"); v == 0 {
		t.Fatalf("no retransmissions under 3%% drop — the regression is vacuous")
	}
}

// TestOffloadSteadyAcceptance pins the headline claim: on tcp-steady
// the offload column takes strictly fewer wakeups per wire segment and
// software-checksums strictly fewer bytes than Library-SHM-IPF at two
// offered-load points.
func TestOffloadSteadyAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second steady-state cells")
	}
	lib, off := HeadlineConfig(), OffloadConfig()
	for _, mbps := range []float64{2, 5} {
		lc, err := RunOffloadSteady(nil, lib, mbps)
		if err != nil {
			t.Fatalf("library %.0f Mb/s: %v", mbps, err)
		}
		oc, err := RunOffloadSteady(nil, off, mbps)
		if err != nil {
			t.Fatalf("offload %.0f Mb/s: %v", mbps, err)
		}
		if oc.WakeupsPerSegment >= lc.WakeupsPerSegment {
			t.Errorf("%.0f Mb/s: offload wakeups/segment %.3f, library %.3f — want strictly fewer",
				mbps, oc.WakeupsPerSegment, lc.WakeupsPerSegment)
		}
		if oc.SwChecksumBytes >= lc.SwChecksumBytes {
			t.Errorf("%.0f Mb/s: offload sw-checksummed %d B, library %d B — want strictly fewer",
				mbps, oc.SwChecksumBytes, lc.SwChecksumBytes)
		}
		if oc.Deliveries >= oc.WireFrames {
			t.Errorf("%.0f Mb/s: %d deliveries for %d wire frames — LRO never coalesced",
				mbps, oc.Deliveries, oc.WireFrames)
		}
	}
}

// TestTSOAllocBudget holds the offload transmit path to the same
// per-segment allocation ceiling PR 3 set for the software hot path:
// slicing super-segments in the engine must reuse pooled buffers, not
// trade the copy savings for header-clone garbage.
func TestTSOAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run skipped in -short")
	}
	if perSeg := streamAllocsPerSegment(t, OffloadConfig(), false); perSeg > allocsPerSegmentBudget {
		t.Fatalf("TSO path allocates %.2f objects/segment; budget is %.0f", perSeg, allocsPerSegmentBudget)
	}
}

// TestOffloadSteadyDeterminism: the same cell measured twice must be
// identical in every field — the in-process half of the -count=2
// determinism battery CI runs on the offload lane.
func TestOffloadSteadyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second steady-state cells")
	}
	cfg := OffloadConfig()
	a, err := RunOffloadSteady(nil, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOffloadSteady(nil, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("offload steady cell not deterministic:\n  %+v\n  %+v", a, b)
	}
}

// TestStreamPacedAndUnpacedAgree pins the one stream workload: flat out
// (RunTTCP, interval 0) and paced deliver the same bytes, and pacing is
// what stretches the transfer.
func TestStreamPacedAndUnpacedAgree(t *testing.T) {
	cfg := HeadlineConfig()
	const total = 128 << 10
	flat := RunTTCP(nil, cfg, cfg.RcvBufKB, total)
	paced := runStreamOn(streamWorld(nil, cfg, false), "steady", cfg.RcvBufKB, total, 30*time.Millisecond)
	if flat.Err != nil || paced.Err != nil {
		t.Fatalf("flat: %v, paced: %v", flat.Err, paced.Err)
	}
	if flat.Bytes != total || paced.Bytes != total {
		t.Errorf("delivered %d flat, %d paced, want %d", flat.Bytes, paced.Bytes, total)
	}
	if floor := 15 * 30 * time.Millisecond; paced.Duration < floor || flat.Duration >= floor {
		t.Errorf("16 chunks at 30 ms: paced took %v, flat %v, want paced >= %v > flat", paced.Duration, flat.Duration, floor)
	}
}
