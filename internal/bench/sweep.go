package bench

import (
	"fmt"
	"strings"

	"repro/internal/fault"
)

// SweepPoint is one receive-buffer-size measurement.
type SweepPoint struct {
	BufKB      int
	Throughput float64
}

// SweepBuffers reproduces the paper's methodology for choosing each
// configuration's receive buffer: "running the throughput benchmarks with
// increasing buffer size until further increases did not improve
// throughput." Every world is built in env.
func SweepBuffers(env *Env, cfg SysConfig, totalBytes int, sizesKB []int) []SweepPoint {
	if len(sizesKB) == 0 {
		sizesKB = []int{8, 16, 24, 32, 48, 64, 96, 120}
	}
	var out []SweepPoint
	for _, kb := range sizesKB {
		r := RunTTCP(env, cfg, kb, totalBytes)
		p := SweepPoint{BufKB: kb}
		if r.Err == nil {
			p.Throughput = r.KBps()
		}
		out = append(out, p)
	}
	return out
}

// BestBuffer returns the sweep's knee: the smallest buffer within 2% of
// the peak.
func BestBuffer(points []SweepPoint) SweepPoint {
	peak := 0.0
	for _, p := range points {
		if p.Throughput > peak {
			peak = p.Throughput
		}
	}
	for _, p := range points {
		if p.Throughput >= 0.98*peak {
			return p
		}
	}
	return SweepPoint{}
}

// FormatSweep renders a sweep.
func FormatSweep(cfg SysConfig, points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: throughput vs receive buffer\n", cfg.Name)
	for _, p := range points {
		fmt.Fprintf(&b, "  %4d KB  %6.0f KB/s\n", p.BufKB, p.Throughput)
	}
	best := BestBuffer(points)
	fmt.Fprintf(&b, "  best: %d KB (%.0f KB/s)\n", best.BufKB, best.Throughput)
	return b.String()
}

// AblationResult is one ablation measurement.
type AblationResult struct {
	Name     string
	Metric   string
	Baseline float64
	Variant  float64
}

// RunAblations measures the design choices DESIGN.md calls out, on the
// Library-SHM-IPF configuration:
//
//   - packet-filter delivery mode (SHM-IPF vs SHM vs per-packet IPC):
//     small-message latency effect,
//   - loss resilience: throughput at 1% injected loss vs clean network
//     (exercises fast retransmit and RTO machinery),
//   - the NEWAPI shared-buffer interface vs the standard one: throughput
//     effect.
func RunAblations(opt Options) []AblationResult {
	var out []AblationResult

	base := DECConfigs()[5] // Library-SHM-IPF
	clean := RunTTCP(opt.Env, base, base.RcvBufKB, opt.TotalBytes)

	// Delivery-mode latency ablation.
	ipf := RunProtolat(opt.Env, base, true, 1, opt.LatRounds)
	shm := RunProtolat(opt.Env, DECConfigs()[4], true, 1, opt.LatRounds)
	ipc := RunProtolat(opt.Env, DECConfigs()[3], true, 1, opt.LatRounds)
	out = append(out,
		AblationResult{Name: "delivery SHM vs SHM-IPF", Metric: "UDP 1B RTT ms", Baseline: ipf.Ms(), Variant: shm.Ms()},
		AblationResult{Name: "delivery IPC vs SHM-IPF", Metric: "UDP 1B RTT ms", Baseline: ipf.Ms(), Variant: ipc.Ms()},
	)

	// Loss resilience.
	lossy := runTTCPWithLoss(opt.Env, base, base.RcvBufKB, opt.TotalBytes, 0.01)
	out = append(out, AblationResult{
		Name: "1% packet loss", Metric: "TCP throughput KB/s",
		Baseline: clean.KBps(), Variant: lossy.KBps(),
	})

	// NEWAPI vs standard socket interface (the §4.2 flexibility claim).
	na := RunTTCP(opt.Env, NewAPIConfigs()[2], 120, opt.TotalBytes)
	out = append(out, AblationResult{
		Name: "NEWAPI shared buffers", Metric: "TCP throughput KB/s",
		Baseline: clean.KBps(), Variant: na.KBps(),
	})
	return out
}

// runTTCPWithLoss is RunTTCP on a world whose segment drops frames.
func runTTCPWithLoss(env *Env, cfg SysConfig, rcvBufKB, totalBytes int, loss float64) TTCPResult {
	w := streamWorld(env, cfg, false)
	w.Seg.Faults().SetDefaultRates(fault.Rates{Drop: loss})
	w.Sim.Deadline = 0 // default hour; loss runs take longer
	return runStreamOn(w, "ttcp", rcvBufKB, totalBytes, 0)
}

// FormatAblations renders ablation results.
func FormatAblations(results []AblationResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablations (baseline = Mach 3.0+UX Library-SHM-IPF)")
	for _, r := range results {
		fmt.Fprintf(&b, "  %-28s %-22s baseline %8.2f -> variant %8.2f (%+.0f%%)\n",
			r.Name, r.Metric, r.Baseline, r.Variant, 100*(r.Variant-r.Baseline)/r.Baseline)
	}
	return b.String()
}
