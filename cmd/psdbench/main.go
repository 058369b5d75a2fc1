// Command psdbench regenerates the evaluation of "Protocol Service
// Decomposition for High-Performance Networking" (Maeda & Bershad,
// SOSP '93): Table 2 (throughput and latency for 12 system
// configurations on two platforms), Table 3 (the NEWAPI shared-buffer
// interface), Table 4 (the per-layer latency breakdown), the
// receive-buffer sweep methodology, and a set of ablations.
//
// Usage:
//
//	psdbench -all               # everything (takes a few minutes)
//	psdbench -table 2           # just Table 2
//	psdbench -table 4           # just the breakdown
//	psdbench -sweep             # buffer-size sweeps
//	psdbench -ablations         # design-choice ablations
//	psdbench -rounds N -mb M    # adjust effort
//	psdbench -faultplan '@0 rates drop=0.01; @2s partition A|B for=300ms' ...
//	                            # run under the faults a plan describes
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// errUsage reports a command line run refused; it has already said why
// on stderr.
var errUsage = errors.New("usage")

// run is the whole program minus the exit status: it parses args and
// writes every report to stdout, so tests can drive the flag paths
// against golden output.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("psdbench", flag.ContinueOnError)
	table := fs.Int("table", 0, "reproduce one table (2, 3, or 4)")
	config := fs.String("config", "", "measure a single named configuration (see -list)")
	list := fs.Bool("list", false, "list configuration names")
	sweep := fs.Bool("sweep", false, "run receive-buffer sweeps")
	ablations := fs.Bool("ablations", false, "run design-choice ablations")
	all := fs.Bool("all", false, "run everything")
	rounds := fs.Int("rounds", 300, "round trips per latency cell")
	mb := fs.Int("mb", 16, "ttcp transfer size in MB")
	faultPlan := fs.String("faultplan", "", "faults on every world, as a fault plan (DSL, see EXPERIMENTS.md), e.g. '@0 rates drop=0.01 jitter=1ms; @2s partition A|B for=500ms'")
	traceDir := fs.String("trace", "", "record every run on the flight recorder and dump the slowest run's trace (text, pcap, Chrome JSON) into this directory")
	metricsRun := fs.Bool("metrics", false, "run the metrics-registry digest suite; its report is its only output, so it goes to stdout without -json")
	proxyRun := fs.Bool("proxy", false, "run the proxy forwarding suite (bsd vs chain vs splice on every architecture column); report to stdout without -json")
	proxyMB := fs.Int("proxy-mb", 4, "bytes forwarded per -proxy cell, in MB")
	offloadRun := fs.Bool("offload", false, "run the NIC-offload comparison suite (tcp-steady at several offered loads, splice proxy, churn on all four architecture columns)")
	dataplaneRun := fs.Bool("dataplane", false, "run the programmable-data-plane suite (throughput/latency vs filter-chain length on all four architecture columns, plus the conservation-gated L4 load-balancer churn workload)")
	scenarios := fs.Bool("scenarios", false, "run the internet-scale scenario suite (all scenarios x all architectures) and gate on its SLOs")
	scenarioSeed := fs.Int64("scenario-seed", 1, "seed for -scenarios traffic generators")
	scale := fs.Bool("scale", false, "run the sharded-simulation scale sweep (RunCity at growing host counts, classic loop vs shard groups) and gate on conservation laws plus the multi-shard speedup")
	scaleArch := fs.String("scale-arch", "decomposed", "architecture for the -scale city workload (decomposed, inkernel, server, offload)")
	scaleHosts := fs.Int("scale-hosts", 10000, "largest host count for the -scale sweep")
	scaleSeed := fs.Int64("scale-seed", 1, "seed for the -scale city workload")
	shards := fs.Int("shards", -1, "with -scale, sweep only the classic loop plus this shard count (default: classic, 1, 4, and 8 shards)")
	scalePoint := fs.String("scale-point", "", "internal: measure one scale cell (JSON spec) and print the point as JSON")
	jsonOut := fs.String("json", "", "write the run of the one report suite selected (-metrics, -proxy, -offload, -dataplane, -scenarios or -scale) to this file in the shape of the checked-in BENCH_*.json (\"-\" for stdout)")
	benchLabel := fs.String("label", "", "label stored in every JSON report (default \"psdbench\")")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	if *scalePoint != "" {
		return runScalePointCmd(stdout, *scalePoint)
	}

	suites := 0
	for _, on := range []bool{*metricsRun, *proxyRun, *all || *offloadRun, *all || *dataplaneRun, *scenarios, *scale} {
		if on {
			suites++
		}
	}
	if *jsonOut != "" && suites != 1 {
		fmt.Fprintf(fs.Output(), "-json holds one suite's report; %d of -metrics -proxy -offload -dataplane -scenarios -scale selected (-all selects two)\n", suites)
		return errUsage
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	env := &bench.Env{Trace: *traceDir != ""}
	if err := env.SetFaults(*faultPlan); err != nil {
		return err
	}

	opt := bench.Options{LatRounds: *rounds, TotalBytes: *mb << 20, Env: env}
	ran := false

	if *list {
		ran = true
		for _, c := range bench.AllConfigs() {
			fmt.Fprintf(stdout, "%-24s %s\n", c.Platform, c.Name)
		}
	}
	if *config != "" {
		ran = true
		cfg, err := bench.FindConfig(*config)
		if err != nil {
			return err
		}
		row := bench.RunTable2Row(cfg, opt)
		fmt.Fprintln(stdout, bench.FormatTable2("Configuration: "+cfg.Name, []bench.Table2Row{row}))
	}

	if *all || *table == 2 {
		ran = true
		rows := bench.RunTable2(opt)
		fmt.Fprintln(stdout, bench.FormatTable2(
			"Table 2: TCP throughput and TCP/UDP round-trip latency", rows))
	}
	if *all || *table == 3 {
		ran = true
		rows := bench.RunTable3(opt)
		fmt.Fprintln(stdout, bench.FormatTable2(
			"Table 3: the modified socket interface (NEWAPI)", rows))
	}
	if *all || *table == 4 {
		ran = true
		runTable4(stdout, opt)
	}
	if *all || *sweep {
		ran = true
		for _, cfg := range bench.DECConfigs() {
			pts := bench.SweepBuffers(env, cfg, opt.TotalBytes/4, nil)
			fmt.Fprintln(stdout, bench.FormatSweep(cfg, pts))
		}
	}
	if *all || *ablations {
		ran = true
		fmt.Fprintln(stdout, bench.FormatAblations(bench.RunAblations(opt)))
	}
	if *metricsRun {
		ran = true
		if err := runMetrics(stdout, env, cmp.Or(*jsonOut, "-"), *benchLabel); err != nil {
			return err
		}
	}
	if *proxyRun {
		ran = true
		if err := runProxy(stdout, env, cmp.Or(*jsonOut, "-"), *benchLabel, *proxyMB<<20); err != nil {
			return err
		}
	}
	if *all || *offloadRun {
		ran = true
		if err := runOffload(stdout, env, *jsonOut, *benchLabel); err != nil {
			return err
		}
	}
	if *all || *dataplaneRun {
		ran = true
		if err := runDataplane(stdout, env, *jsonOut, *benchLabel); err != nil {
			return err
		}
	}
	if *scenarios {
		ran = true
		if err := runScenarios(stdout, *jsonOut, *benchLabel, *scenarioSeed); err != nil {
			return err
		}
	}
	if *scale {
		ran = true
		shardCounts := []int{0, 1, 4, 8}
		if *shards >= 0 {
			shardCounts = []int{0}
			if *shards > 0 {
				shardCounts = append(shardCounts, *shards)
			}
		}
		if err := runScale(stdout, *jsonOut, *benchLabel, *scaleArch, *scaleSeed, *scaleHosts, shardCounts); err != nil {
			return err
		}
	}
	if !ran {
		fs.Usage()
		return errUsage
	}
	if rep := env.FaultReport(); rep != "" {
		fmt.Fprintln(stdout, rep)
	}
	if *traceDir != "" {
		msg, err := env.DumpSlowest(*traceDir)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, msg)
	}
	return nil
}

// runMetrics runs the registry digest suite against the paper's
// headline Library-SHM-IPF system and writes the report.
func runMetrics(stdout io.Writer, env *bench.Env, path, label string) error {
	cfg := bench.HeadlineConfig()
	results, err := bench.RunMetricsSuite(env, cfg)
	if err != nil {
		return err
	}
	return writeReport(stdout, path, label, "metrics", nil, cfg.Name, results)
}

// runProxy measures the socket-to-socket forwarding workload — the
// flat-buffer loop against the chain and splice paths — on every
// architecture column, and writes the report.
func runProxy(stdout io.Writer, env *bench.Env, path, label string, totalBytes int) error {
	results, err := bench.RunProxySuite(env, totalBytes)
	if err != nil {
		return err
	}
	return writeReport(stdout, path, label, "proxy", nil, "", results)
}

func runTable4(stdout io.Writer, opt bench.Options) {
	decs := bench.DECConfigs()
	for _, tcp := range []bool{true, false} {
		proto, sizes := "TCP", bench.TCPSizes
		if !tcp {
			proto, sizes = "UDP", bench.UDPSizes
		}
		var cells []bench.Breakdown
		for _, cfg := range []bench.SysConfig{decs[5], decs[0], decs[2]} { // Library, Kernel, Server
			for _, size := range []int{sizes[0], sizes[len(sizes)-1]} { // the paper's min and max
				cells = append(cells, bench.RunBreakdown(opt.Env, cfg, tcp, size, opt.LatRounds))
			}
		}
		fmt.Fprintln(stdout, bench.FormatTable4("Table 4 ("+proto+"): per-layer latency, µs per one-way message", cells))
	}
}
