package main

import (
	"fmt"
	"io"

	"repro/internal/bench"
)

// runOffload measures the NIC-offload comparison suite (tcp-steady at
// several offered loads, the splice proxy, and connection churn, each
// across all four architecture columns), prints the tables, and writes
// a BENCH_offload-style JSON entry to path ("-" for stdout, "" for
// none).
func runOffload(stdout io.Writer, env *bench.Env, path, label string) error {
	results, err := bench.RunOffloadSuite(env)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, "Offload suite: tcp-steady")
	fmt.Fprintf(stdout, "%-38s %6s %8s %6s %6s %7s %9s %9s %12s %12s\n",
		"configuration", "Mb/s", "KB/s", "wire", "deliv", "wakeup", "wake/seg", "coalesce", "sw-csum-B", "nic-csum-B")
	for _, c := range results {
		if c.Workload != "tcp-steady" {
			continue
		}
		fmt.Fprintf(stdout, "%-38s %6.0f %8.1f %6d %6d %7d %9.3f %9.2f %12d %12d\n",
			c.Config, c.OfferedMbps, c.KBps, c.WireFrames, c.Deliveries, c.Wakeups,
			c.WakeupsPerSegment, c.CoalesceRatio, c.SwChecksumBytes, c.OffloadCsumBytes)
	}
	fmt.Fprintln(stdout, "\nOffload suite: proxy (splice)")
	fmt.Fprintf(stdout, "%-38s %8s %10s\n", "configuration", "KB/s", "copies/B")
	for _, c := range results {
		if c.Workload != "proxy-splice" {
			continue
		}
		fmt.Fprintf(stdout, "%-38s %8.1f %10.3f\n", c.Config, c.KBps, c.CopiesPerByte)
	}
	fmt.Fprintln(stdout, "\nOffload suite: churn")
	fmt.Fprintf(stdout, "%-14s %6s %7s %7s %9s %12s\n", "arch", "conns", "wire", "wakeup", "wake/seg", "sw-csum-B")
	for _, c := range results {
		if c.Workload != "churn" {
			continue
		}
		fmt.Fprintf(stdout, "%-14s %6d %7d %7d %9.3f %12d\n",
			c.Config, c.Conns, c.WireFrames, c.Wakeups, c.WakeupsPerSegment, c.SwChecksumBytes)
	}

	return writeReport(stdout, path, label, "offload", nil, "", results)
}
