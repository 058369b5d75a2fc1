package bench

import (
	"repro/internal/metrics"
)

// Registry capture for the harness: when enabled, every world the
// benchmarks build carries a metrics registry, so psdbench can report
// latency quantiles and loss/retransmit counts alongside the paper's
// tables. Only EnableMetrics and DisableMetrics write the switch; a
// suite that needs a registry asks its own build call for one.

var metricsCfg struct {
	enabled bool
}

// EnableMetrics turns on the metrics registry for every world built
// after the call.
func EnableMetrics() { metricsCfg.enabled = true }

// DisableMetrics switches registry capture back off (tests).
func DisableMetrics() { metricsCfg.enabled = false }

// attachMetrics wires a registry into a freshly built world (called from
// build).
func attachMetrics(w *World) {
	w.Reg = metrics.NewRegistry()
	w.Seg.SetMetrics(w.Reg.Scope("net"))
	w.sysA.SetMetrics(w.Reg.Scope("host.A"))
	w.sysB.SetMetrics(w.Reg.Scope("host.B"))
}

// WorkloadMetrics is the registry-derived digest of one benchmark
// workload: connect-latency quantiles across every stack in the world,
// wire-level drops, and TCP retransmissions.
type WorkloadMetrics struct {
	Name         string `json:"name"`
	ConnectP50Ns int64  `json:"connect_p50_ns"`
	ConnectP99Ns int64  `json:"connect_p99_ns"`
	Drops        int64  `json:"drops"`
	Rexmits      int64  `json:"rexmits"`
}

// digestWorld reduces a world's registry to a WorkloadMetrics row.
func digestWorld(name string, w *World) WorkloadMetrics {
	m := WorkloadMetrics{Name: name}
	if h := w.Reg.MergedHistogram(".connect_ns"); h != nil && h.Count() > 0 {
		m.ConnectP50Ns = int64(h.Quantile(0.50))
		m.ConnectP99Ns = int64(h.Quantile(0.99))
	}
	snap := w.Reg.Snapshot(w.Sim.Now().Duration())
	m.Drops = snap.Sum(".drops_loss") + snap.Sum(".drops_down") + snap.Sum(".partition_drops")
	m.Rexmits = snap.Sum(".tcp_rexmit") + snap.Sum(".tcp_fast_rexmit")
	return m
}

// RunMetricsSuite runs a small fixed workload set on cfg, each on a world
// built with a registry — a clean TCP stream, a clean latency ping-pong,
// and a lossy TCP stream that forces retransmissions — and returns one
// digest row per workload. Deterministic for a given configuration.
func RunMetricsSuite(cfg SysConfig) ([]WorkloadMetrics, error) {
	var out []WorkloadMetrics
	var firstErr error
	row := func(name string, w *World, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		out = append(out, digestWorld(name, w))
	}

	// Clean bulk transfer (1 MB keeps the suite quick).
	w := streamWorld(cfg, true)
	row("tcp-stream", w, runStreamOn(w, "ttcp", cfg.RcvBufKB, 1<<20, 0).Err)

	// Clean round-trip latency.
	w = latWorld(cfg, true)
	row("tcp-latency", w, runProtolatOn(w, true, 1024, 50, nil).Err)

	// Lossy bulk transfer: 1% frame loss exercises rexmit accounting.
	// Only Drop is overridden, so the other -loss/-dup/... defaults the
	// build installed stay in force.
	w = streamWorld(cfg, true)
	r := w.Seg.Faults().DefaultRates()
	r.Drop = 0.01
	w.Seg.Faults().SetDefaultRates(r)
	row("tcp-stream-lossy", w, runStreamOn(w, "ttcp", cfg.RcvBufKB, 1<<20, 0).Err)

	return out, firstErr
}
