package bench

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
// built in env with a registry — a clean TCP stream, a clean latency
// ping-pong, and a lossy TCP stream that forces retransmissions — and
// returns one digest row per workload. Deterministic for a given
// configuration and environment.
func RunMetricsSuite(env *Env, cfg SysConfig) ([]WorkloadMetrics, error) {
	var out []WorkloadMetrics
	var firstErr error
	row := func(name string, w *World, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		out = append(out, digestWorld(name, w))
	}

	// Clean bulk transfer (1 MB keeps the suite quick).
	w := streamWorld(env, cfg, true)
	row("tcp-stream", w, runStreamOn(w, "ttcp", cfg.RcvBufKB, 1<<20, 0).Err)

	// Clean round-trip latency.
	w = latWorld(env, cfg, true)
	row("tcp-latency", w, runProtolatOn(w, true, 1024, 50, nil).Err)

	// Lossy bulk transfer: 1% frame loss exercises rexmit accounting.
	// Only Drop is overridden, so the other rates env's faults installed
	// stay in force.
	w = streamWorld(env, cfg, true)
	r := w.Seg.Faults().DefaultRates()
	r.Drop = 0.01
	w.Seg.Faults().SetDefaultRates(r)
	row("tcp-stream-lossy", w, runStreamOn(w, "ttcp", cfg.RcvBufKB, 1<<20, 0).Err)

	return out, firstErr
}
