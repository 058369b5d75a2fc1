package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/costs"
)

// TestBreakdownMatchesTable4 checks the Table 4 reproduction against the
// paper's published per-layer values for the UDP 1-byte column of each
// implementation style (tolerance 20% + 15 µs: the workload attributes
// real charges, including ACK and wakeup variance).
func TestBreakdownMatchesTable4(t *testing.T) {
	type want struct {
		comp costs.Component
		us   float64
	}
	cases := []struct {
		cfg   SysConfig
		wants []want
	}{
		{DECConfigs()[5], []want{ // Library SHM-IPF
			{costs.CompTransportOutput, 18}, {costs.CompEtherOutput, 105},
			{costs.CompKernelCopyout, 107}, {costs.CompTransportInput, 103},
			{costs.CompCopyoutExit, 21},
		}},
		{DECConfigs()[0], []want{ // Kernel
			{costs.CompEntryCopyin, 65}, {costs.CompTransportOutput, 70},
			{costs.CompDeviceIntrRead, 74}, {costs.CompTransportInput, 67},
		}},
		{DECConfigs()[2], []want{ // Server
			{costs.CompEntryCopyin, 293}, {costs.CompTransportOutput, 229},
			{costs.CompCopyoutExit, 208},
		}},
	}
	for _, c := range cases {
		bd := RunBreakdown(nil, c.cfg, false, 1, 100)
		for _, w := range c.wants {
			got := float64(bd.PerLayer[w.comp]) / float64(time.Microsecond)
			tol := w.us*0.20 + 15
			if got < w.us-tol || got > w.us+tol {
				t.Errorf("%s %v: %.0f µs, want %.0f ± %.0f", c.cfg.Name, w.comp, got, w.us, tol)
			}
		}
		// One-way totals should be near the paper's sums.
		oneWay := float64(bd.SendTotal()+bd.RecvTotal()+bd.Transit) / float64(time.Microsecond)
		t.Logf("%s UDP 1B one-way total: %.0f µs", c.cfg.Name, oneWay)
	}
}

// TestLedgerLaw: Table 4 reads the hosts' CPU ledgers, so they must hold
// every charge. At the end of the stream and the TCP and UDP protolat
// worlds of every configuration row, and of the proxy, paced-stream
// (offload) and rule-chain (data-plane) worlds of every column, each
// host's ledger sums to its CPU's busy time: the world's audit, which
// every runner ends with, reports a broken law as the run's Err. The
// stream and protolat worlds have no registry; the audit reads the
// hosts.
func TestLedgerLaw(t *testing.T) {
	check := func(w *World, what string, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s %s: %v", w.Cfg.Name, what, err)
		}
	}
	const total = 256 << 10
	for _, cfg := range AllConfigs() {
		w := streamWorld(nil, cfg, false)
		check(w, "ttcp", runStreamOn(w, "ttcp", cfg.RcvBufKB, total, 0).Err)
		for _, tcp := range []bool{true, false} {
			w := latWorld(nil, cfg, false)
			check(w, fmt.Sprintf("protolat tcp=%v", tcp), runProtolatOn(w, tcp, 100, 10, nil).Err)
		}
	}
	for _, cfg := range Columns() {
		for _, mode := range ProxyModes {
			w := proxyWorld(nil, cfg)
			check(w, "proxy "+mode, runProxyOn(w, mode, total).Err)
		}
		w := streamWorld(nil, cfg, true)
		check(w, "paced stream", runStreamOn(w, "steady", cfg.RcvBufKB, total, 20*time.Millisecond).Err)
		w = streamWorld(nil, cfg, true)
		attachPlanes(w, 16)
		check(w, "ttcp under a rule chain", runStreamOn(w, "ttcp", cfg.RcvBufKB, total, 0).Err)
	}
}
