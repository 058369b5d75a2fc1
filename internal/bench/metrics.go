package bench

import (
	"repro/internal/metrics"
)

// Registry capture for the harness: when enabled, every world the
// benchmarks build carries a metrics registry, so psdbench can report
// latency quantiles and loss/retransmit counts alongside the paper's
// tables.

var metricsCfg struct {
	enabled bool
}

// EnableMetrics turns on the metrics registry for every world built
// after the call.
func EnableMetrics() { metricsCfg.enabled = true }

// DisableMetrics switches registry capture back off (tests).
func DisableMetrics() { metricsCfg.enabled = false }

// attachMetrics wires a registry into a freshly built world when capture
// is enabled (called from Build).
func attachMetrics(w *World) {
	if !metricsCfg.enabled {
		return
	}
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
	if w.Reg == nil {
		return m
	}
	if h := w.Reg.MergedHistogram(".connect_ns"); h != nil && h.Count() > 0 {
		m.ConnectP50Ns = int64(h.Quantile(0.50))
		m.ConnectP99Ns = int64(h.Quantile(0.99))
	}
	snap := w.Reg.Snapshot(w.Sim.Now().Duration())
	m.Drops = snap.Sum(".drops_loss") + snap.Sum(".drops_down") + snap.Sum(".partition_drops")
	m.Rexmits = snap.Sum(".tcp_rexmit") + snap.Sum(".tcp_fast_rexmit")
	return m
}

// RunMetricsSuite runs a small fixed workload set on cfg with registry
// capture enabled — a clean TCP stream, a clean latency ping-pong, and
// a lossy TCP stream that forces retransmissions — and returns one
// digest row per workload. Deterministic for a given configuration.
func RunMetricsSuite(cfg SysConfig) ([]WorkloadMetrics, error) {
	wasOn := metricsCfg.enabled
	EnableMetrics()
	defer func() { metricsCfg.enabled = wasOn }()

	var out []WorkloadMetrics
	var firstErr error

	// Clean bulk transfer (1 MB keeps the suite quick).
	{
		var w *World
		restore := captureBuild(&w)
		res := RunTTCP(cfg, cfg.RcvBufKB, 1<<20)
		restore()
		if res.Err != nil && firstErr == nil {
			firstErr = res.Err
		}
		out = append(out, digestWorld("tcp-stream", w))
	}

	// Clean round-trip latency.
	{
		var w *World
		restore := captureBuild(&w)
		res := RunProtolat(cfg, false, 1024, 50)
		restore()
		if res.Err != nil && firstErr == nil {
			firstErr = res.Err
		}
		out = append(out, digestWorld("tcp-latency", w))
	}

	// Lossy bulk transfer: 1% frame loss exercises rexmit accounting.
	{
		var w *World
		restore := captureBuild(&w, func(w *World) {
			r := w.Seg.Faults().DefaultRates()
			r.Drop = 0.01
			w.Seg.Faults().SetDefaultRates(r)
		})
		res := RunTTCP(cfg, cfg.RcvBufKB, 1<<20)
		restore()
		if res.Err != nil && firstErr == nil {
			firstErr = res.Err
		}
		out = append(out, digestWorld("tcp-stream-lossy", w))
	}

	return out, firstErr
}

// captureBuild temporarily installs a build hook that records the next
// world built (and applies any extra setup), returning a restore func.
func captureBuild(dst **World, extra ...func(*World)) func() {
	prev := buildHook
	buildHook = func(w *World) {
		if prev != nil {
			prev(w)
		}
		*dst = w
		for _, fn := range extra {
			fn(w)
		}
	}
	return func() { buildHook = prev }
}
