package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/costs"
)

func TestFindConfig(t *testing.T) {
	cfg, err := FindConfig("Mach 2.5 In-Kernel")
	if err != nil || cfg.Spec.Prof.Style != costs.StyleKernel {
		t.Fatalf("FindConfig: %+v %v", cfg, err)
	}
	if _, err := FindConfig("No Such System"); err == nil {
		t.Fatal("unknown config found")
	}
}

func TestConfigRegistryShape(t *testing.T) {
	dec := DECConfigs()
	if len(dec) != 6 {
		t.Fatalf("DEC rows = %d, want 6", len(dec))
	}
	i486 := I486Configs()
	if len(i486) != 6 {
		t.Fatalf("i486 rows = %d, want 6", len(i486))
	}
	na := NewAPIConfigs()
	if len(na) != 3 {
		t.Fatalf("NEWAPI rows = %d, want 3", len(na))
	}
	for _, cfg := range na {
		if !cfg.NewAPI || !strings.Contains(cfg.Name, "NEWAPI") {
			t.Errorf("NEWAPI row misconfigured: %+v", cfg.Name)
		}
	}
	// The quirky systems carry the large-TCP-send bug in their profile.
	quirky := 0
	for _, cfg := range i486 {
		if cfg.Spec.Prof.LargeTCPSendBroken {
			quirky++
		}
	}
	if quirky != 2 {
		t.Fatalf("i486 NA rows = %d, want 2 (386BSD, BNR2SS)", quirky)
	}
}

func TestRunTable2RowQuick(t *testing.T) {
	row := RunTable2Row(DECConfigs()[0], QuickOptions())
	if row.Throughput < 500 || row.Throughput > 1500 {
		t.Fatalf("kernel throughput = %.0f KB/s, out of plausible range", row.Throughput)
	}
	if len(row.TCPLat) != 5 || len(row.UDPLat) != 5 {
		t.Fatalf("latency cells: %d/%d", len(row.TCPLat), len(row.UDPLat))
	}
	for i, l := range row.UDPLat {
		if l.Err != nil {
			t.Fatalf("udp cell %d: %v", i, l.Err)
		}
		if i > 0 && l.Avg <= row.UDPLat[i-1].Avg {
			t.Fatalf("latency not monotonic with size: %v", row.UDPLat)
		}
	}
}

func TestNARowsReportNA(t *testing.T) {
	cfg := I486Configs()[1] // 386BSD
	l := RunProtolat(nil, cfg, false, 1024, 10)
	if !l.NA {
		t.Fatal("386BSD TCP 1024B must be NA")
	}
	l = RunProtolat(nil, cfg, false, 100, 10)
	if l.NA || l.Err != nil {
		t.Fatalf("386BSD TCP 100B should measure: %+v", l)
	}
	if latCell(LatResult{NA: true}) != "NA" {
		t.Fatal("NA cell formatting")
	}
}

func TestFormatTable2(t *testing.T) {
	rows := []Table2Row{{
		Config: "Test System", Platform: "TestStation",
		Throughput: 1000, RcvBufKB: 24,
		TCPLat: make([]LatResult, 5),
		UDPLat: make([]LatResult, 5),
	}}
	out := FormatTable2("Table X", rows)
	for _, want := range []string{"Table X", "TestStation", "Test System", "1000", "24"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestBreakdownCells(t *testing.T) {
	bd := RunBreakdown(nil, DECConfigs()[0], false, 1, 50)
	if bd.SendTotal() <= 0 || bd.RecvTotal() <= 0 {
		t.Fatalf("empty breakdown: %+v", bd)
	}
	// Kernel profile: no kernel-copyout or mbuf/queue components.
	if bd.PerLayer[costs.CompKernelCopyout] != 0 || bd.PerLayer[costs.CompMbufQueue] != 0 {
		t.Fatalf("kernel breakdown has user-level delivery components: %v", bd.PerLayer)
	}
	out := FormatTable4("T4", []Breakdown{bd})
	for _, want := range []string{"entry/copyin", "network transit", "one-way total"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in table", want)
		}
	}
}

func TestWireTransitMatchesPaper(t *testing.T) {
	if got := wireTransit(1, false); got != 51200*time.Nanosecond {
		t.Fatalf("UDP 1B transit = %v, want 51.2µs", got)
	}
	if got := wireTransit(1472, false); got != 1518*800*time.Nanosecond {
		t.Fatalf("UDP 1472B transit = %v", got)
	}
	if got := wireTransit(1460, true); got != 1518*800*time.Nanosecond {
		t.Fatalf("TCP 1460B transit = %v", got)
	}
}

func TestBestBuffer(t *testing.T) {
	pts := []SweepPoint{{8, 500}, {16, 980}, {24, 1000}, {120, 1005}}
	best := BestBuffer(pts)
	if best.BufKB != 24 {
		t.Fatalf("best = %d, want the knee at 24", best.BufKB)
	}
	if BestBuffer(nil).BufKB != 0 {
		t.Fatal("empty sweep")
	}
}

func TestSweepBuffersRuns(t *testing.T) {
	pts := SweepBuffers(nil, DECConfigs()[0], 1<<20, []int{8, 24})
	if len(pts) != 2 || pts[0].Throughput <= 0 || pts[1].Throughput <= 0 {
		t.Fatalf("sweep: %+v", pts)
	}
	if pts[1].Throughput < pts[0].Throughput {
		t.Fatalf("larger buffer slower: %+v", pts)
	}
	out := FormatSweep(DECConfigs()[0], pts)
	if !strings.Contains(out, "best:") {
		t.Fatal("sweep formatting")
	}
}

func TestLossAblationRecovers(t *testing.T) {
	r := runTTCPWithLoss(nil, DECConfigs()[0], 24, 1<<20, 0.02)
	if r.Err != nil {
		t.Fatalf("lossy transfer failed: %v", r.Err)
	}
	clean := RunTTCP(nil, DECConfigs()[0], 24, 1<<20)
	if r.KBps() >= clean.KBps() {
		t.Fatalf("loss did not reduce throughput: %.0f vs %.0f", r.KBps(), clean.KBps())
	}
}

// TestThroughputOrderingMatchesPaper is the headline Table 2 shape check
// as a unit test: server < library-IPC < library-SHM <= library-SHM-IPF,
// and the libraries within 25% of the kernel.
func TestThroughputOrderingMatchesPaper(t *testing.T) {
	dec := DECConfigs()
	get := func(i int) float64 {
		r := RunTTCP(nil, dec[i], dec[i].RcvBufKB, 4<<20)
		if r.Err != nil {
			t.Fatalf("%s: %v", dec[i].Name, r.Err)
		}
		return r.KBps()
	}
	kernel, server := get(0), get(2)
	ipc, shm, ipf := get(3), get(4), get(5)
	if !(server < ipc && ipc < shm && shm <= ipf) {
		t.Fatalf("ordering violated: srv=%.0f ipc=%.0f shm=%.0f ipf=%.0f", server, ipc, shm, ipf)
	}
	if ipf < 0.75*kernel {
		t.Fatalf("library-SHM-IPF (%.0f) should be comparable to kernel (%.0f)", ipf, kernel)
	}
	if server > 0.70*kernel {
		t.Fatalf("server (%.0f) should be well below kernel (%.0f)", server, kernel)
	}
}

// TestLatencyMatchesTable2Anchors pins the UDP 1-byte round trips to the
// paper's published values within 5%.
func TestLatencyMatchesTable2Anchors(t *testing.T) {
	dec := DECConfigs()
	anchors := []struct {
		idx  int
		want float64 // ms
	}{
		{0, 1.45}, {1, 1.52}, {2, 3.61}, {3, 1.40}, {4, 1.34}, {5, 1.23},
	}
	for _, a := range anchors {
		r := RunProtolat(nil, dec[a.idx], true, 1, 100)
		if r.Err != nil {
			t.Fatalf("%s: %v", dec[a.idx].Name, r.Err)
		}
		if got := r.Ms(); got < a.want*0.95 || got > a.want*1.05 {
			t.Errorf("%s UDP 1B RTT = %.2f ms, paper %.2f (±5%%)", dec[a.idx].Name, got, a.want)
		}
	}
}

// TestDeterministicMeasurements: the whole measurement pipeline must be
// bit-for-bit reproducible — same config, same seed, same numbers.
func TestDeterministicMeasurements(t *testing.T) {
	cfg := DECConfigs()[5]
	r1 := RunTTCP(nil, cfg, cfg.RcvBufKB, 2<<20)
	r2 := RunTTCP(nil, cfg, cfg.RcvBufKB, 2<<20)
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r1.Duration != r2.Duration {
		t.Fatalf("throughput runs differ: %v vs %v", r1.Duration, r2.Duration)
	}
	l1 := RunProtolat(nil, cfg, true, 100, 50)
	l2 := RunProtolat(nil, cfg, true, 100, 50)
	if l1.Avg != l2.Avg {
		t.Fatalf("latency runs differ: %v vs %v", l1.Avg, l2.Avg)
	}
}
