package main

import (
	"fmt"
	"io"
	"time"

	"repro/psd"
)

// scenarioSuite runs every named scenario on every architecture, in
// report order: the rows of BENCH_scenarios.json.
func scenarioSuite(seed int64) ([]*psd.ScenarioResult, error) {
	var results []*psd.ScenarioResult
	for _, name := range psd.ScenarioNames() {
		for _, a := range psd.ArchFlavors() {
			res, err := psd.RunScenario(psd.ScenarioConfig{Name: name, Seed: seed, Arch: a})
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
	}
	return results, nil
}

// runScenarios executes every named scenario on every architecture,
// prints the verdict table (and SLO details for failures), and writes a
// BENCH_scenarios-style JSON entry to path ("-" for stdout, "" for
// none). A failed SLO makes the whole run return an error so CI gates
// on the exit status.
func runScenarios(stdout io.Writer, path, label string, seed int64) error {
	results, err := scenarioSuite(seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Scenario suite (seed %d)\n", seed)
	fmt.Fprintf(stdout, "%-14s %-12s %5s %4s %12s %12s %9s %7s %7s  %s\n",
		"scenario", "arch", "reqs", "errs", "p50", "p99", "conn-p99", "drops", "rexmit", "verdict")
	failed := 0
	for _, res := range results {
		verdict := "pass"
		if !res.Passed {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(stdout, "%-14s %-12s %5d %4d %12s %12s %9s %7d %7d  %s\n",
			res.Name, res.Arch, res.Requests, res.Errors,
			time.Duration(res.ReqP50Ns), time.Duration(res.ReqP99Ns),
			time.Duration(res.ConnectP99Ns),
			res.NetDrops+res.RouterDrops, res.TCPRexmits, verdict)
		if !res.Passed {
			for _, r := range res.SLO {
				fmt.Fprintf(stdout, "    %s\n", r.String())
			}
		}
	}

	if err := writeReport(stdout, path, label, "scenarios", &seed, "", results); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d scenario cell(s) failed their SLOs", failed)
	}
	return nil
}
