package bench

import (
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
