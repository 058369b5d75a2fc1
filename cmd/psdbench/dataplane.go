package main

import (
	"fmt"
	"io"

	"repro/internal/bench"
)

// runDataplane measures the programmable-data-plane suite (throughput
// and latency versus filter-chain length on every architecture column,
// plus the L4 load-balancer churn gate), prints the tables, and writes
// a BENCH_dataplane-style JSON entry to path ("-" for stdout, "" for
// none).
func runDataplane(stdout io.Writer, env *bench.Env, path, label string) error {
	results, err := bench.RunDataplaneSuite(env)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "Dataplane suite: ttcp vs chain length")
	fmt.Fprintf(stdout, "%-38s %6s %7s %9s\n", "configuration", "rules", "instrs", "KB/s")
	for _, c := range results {
		if c.Workload != "ttcp-chain" {
			continue
		}
		fmt.Fprintf(stdout, "%-38s %6d %7d %9.1f\n", c.Config, c.ChainRules, c.ChainInstrs, c.KBps)
	}
	fmt.Fprintln(stdout, "\nDataplane suite: protolat vs chain length")
	fmt.Fprintf(stdout, "%-38s %6s %7s %9s\n", "configuration", "rules", "instrs", "rtt-ms")
	for _, c := range results {
		if c.Workload != "protolat-chain" {
			continue
		}
		fmt.Fprintf(stdout, "%-38s %6d %7d %9.3f\n", c.Config, c.ChainRules, c.ChainInstrs, c.LatencyMs)
	}
	fmt.Fprintln(stdout, "\nDataplane suite: VIP churn (conservation-gated)")
	fmt.Fprintf(stdout, "%-14s %6s %7s %7s %8s %7s %6s %5s\n",
		"arch", "conns", "served", "failed", "rehomed", "resets", "flows", "snat")
	for _, c := range results {
		if c.Workload != "vip-churn" {
			continue
		}
		fmt.Fprintf(stdout, "%-14s %6d %7d %7d %8d %7d %6d %5d\n",
			c.Config, c.Conns, c.Served, c.Failed, c.Rehomed, c.Resets, c.FlowsLeft, c.SNATLeft)
	}

	return writeReport(stdout, path, label, "dataplane", nil, "", results)
}
