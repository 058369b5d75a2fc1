package main

import (
	"fmt"
	"time"
)

// traceRun is a traced run: one set-up, two untraced reps for the
// harness-timed metrics, one rep with the registry, the virtual-time
// ledger, the flight recorder and the socket-call decorator on, then
// the probes. End-to-end metrics never come from here.
func traceRun(wl *workload, seed int64, seconds float64, smoke bool, spanPath string) (*runResult, error) {
	run, warm, _ := setUp(wl, seed, smoke, 1)
	res := &runResult{Workload: wl.name, Seed: seed, Traced: true, Metrics: map[string]metricValue{},
		Digest: fmt.Sprintf("%016x", warm.signature())}
	m := map[string]float64{}

	// Harness-timed metrics, tracing off.
	const plainReps = 2
	var reps []repResult
	for i := 0; i < plainReps; i++ {
		reps = append(reps, runRep(wl, run, nil))
	}
	over := func(f func(r *repResult) float64) float64 {
		var v []float64
		for i := range reps {
			v = append(v, f(&reps[i]))
		}
		return median(v)
	}
	m["sim.events_per_op"] = float64(reps[0].events) / float64(reps[0].ops)
	m["sim.wall_ns_per_event"] = over(func(r *repResult) float64 { return ratio(float64(r.simWall), float64(r.events)) })
	for _, col := range []string{colInkernel, colUxserver, colCore, colOffload} {
		if reps[0].col(col, wl) == nil {
			continue
		}
		m[col+".wall_us_per_op"] = over(func(r *repResult) float64 { c := r.col(col, wl); return us(c.wall) / float64(c.ops) })
		m[col+".allocs_per_op"] = over(func(r *repResult) float64 { c := r.col(col, wl); return float64(c.mallocs) / float64(c.ops) })
		c := reps[0].col(col, wl)
		m[col+".virt_goodput_kbps"] = c.goodputKBps()
		m[col+".virt_rtt_us_p50"] = quantile(c.exchanges(wl), 0.5)
	}
	if c := reps[0].col(colCore, wl); c.windows > 0 {
		m["sim.windows_per_virt_s"] = float64(c.windows) / c.virtTotal.Seconds()
		m["sim.events_per_window"] = float64(c.events) / float64(c.windows)
		var max, sum uint64
		for _, n := range c.perShard {
			sum += n
			if n > max {
				max = n
			}
		}
		mean := float64(sum) / float64(len(c.perShard))
		m["sim.shard_imbalance"] = (float64(max) - mean) / mean
	}
	if v, ok := paperErrPct(wl, &reps[0]); ok {
		m["paper_err_pct"] = v
	}

	// The traced rep.
	log := newSpanLog()
	traced := runRep(wl, run, log)
	res.Reps = 1
	res.Attempted, res.Failed = traced.ops, traced.failed
	for _, c := range traced.cols {
		res.Errors = appendErrs(res.Errors, c.errs)
	}
	layerMetrics(m, wl, &traced, log)
	records := len(log.spans)
	for i := range traced.cols {
		if o := traced.cols[i].obs; o != nil {
			records += len(o.recs)
		}
	}
	m["trace.records_per_op"] = float64(records) / float64(traced.ops)
	m["trace.overhead_pct"] = 100 * (float64(traced.wall)/over(func(r *repResult) float64 { return float64(r.wall) }) - 1)

	// Probes: each gets a fifth of a second of a 10-second run.
	budget := time.Duration(seconds / 50 * float64(time.Second))
	if smoke {
		budget = 10 * time.Millisecond
	}
	runProbes(m, budget, &traced.col(colCore, wl).obs.snap, log)

	for _, spec := range perLayer {
		res.Metrics[spec.name] = metricValue{Value: m[spec.name], Unit: spec.unit}
	}
	if spanPath != "" {
		if err := log.writeChrome(spanPath); err != nil {
			return nil, err
		}
	}
	return res, nil
}
