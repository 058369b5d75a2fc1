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
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/fault"
)

func main() {
	table := flag.Int("table", 0, "reproduce one table (2, 3, or 4)")
	config := flag.String("config", "", "measure a single named configuration (see -list)")
	list := flag.Bool("list", false, "list configuration names")
	sweep := flag.Bool("sweep", false, "run receive-buffer sweeps")
	ablations := flag.Bool("ablations", false, "run design-choice ablations")
	all := flag.Bool("all", false, "run everything")
	rounds := flag.Int("rounds", 300, "round trips per latency cell")
	mb := flag.Int("mb", 16, "ttcp transfer size in MB")
	loss := flag.Float64("loss", 0, "frame drop probability on every link")
	dup := flag.Float64("dup", 0, "frame duplication probability")
	corrupt := flag.Float64("corrupt", 0, "single-bit corruption probability")
	reorder := flag.Float64("reorder", 0, "frame reordering probability")
	reorderBy := flag.Duration("reorderby", 0, "extra delay given to reordered frames (default 2ms)")
	delay := flag.Duration("delay", 0, "fixed extra delay on every frame")
	jitter := flag.Duration("jitter", 0, "uniform random delay added per frame")
	faultPlan := flag.String("faultplan", "", "fault plan (DSL, see EXPERIMENTS.md), e.g. '@2s partition A|B for=500ms'")
	traceDir := flag.String("trace", "", "record every run on the flight recorder and dump the slowest run's trace (text, pcap, Chrome JSON) into this directory")
	metricsRun := flag.Bool("metrics", false, "run the metrics-registry digest suite; its report is its only output, so it goes to stdout without -json")
	proxyRun := flag.Bool("proxy", false, "run the proxy forwarding suite (bsd vs chain vs splice on every architecture column); report to stdout without -json")
	proxyMB := flag.Int("proxy-mb", 4, "bytes forwarded per -proxy cell, in MB")
	offloadRun := flag.Bool("offload", false, "run the NIC-offload comparison suite (tcp-steady at several offered loads, splice proxy, churn on all four architecture columns)")
	dataplaneRun := flag.Bool("dataplane", false, "run the programmable-data-plane suite (throughput/latency vs filter-chain length on all four architecture columns, plus the conservation-gated L4 load-balancer churn workload)")
	scenarios := flag.Bool("scenarios", false, "run the internet-scale scenario suite (all scenarios x all architectures) and gate on its SLOs")
	scenarioSeed := flag.Int64("scenario-seed", 1, "seed for -scenarios traffic generators")
	scale := flag.Bool("scale", false, "run the sharded-simulation scale sweep (RunCity at growing host counts, classic loop vs shard groups) and gate on conservation laws plus the multi-shard speedup")
	scaleArch := flag.String("scale-arch", "decomposed", "architecture for the -scale city workload (decomposed, inkernel, server, offload)")
	scaleHosts := flag.Int("scale-hosts", 10000, "largest host count for the -scale sweep")
	scaleSeed := flag.Int64("scale-seed", 1, "seed for the -scale city workload")
	shards := flag.Int("shards", -1, "with -scale, sweep only the classic loop plus this shard count (default: classic, 1, 4, and 8 shards)")
	jsonOut := flag.String("json", "", "write the run of the one report suite selected (-metrics, -proxy, -offload, -dataplane, -scenarios or -scale) to this file in the shape of the checked-in BENCH_*.json (\"-\" for stdout)")
	benchLabel := flag.String("label", "", "label stored in every JSON report (default \"psdbench\")")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
	flag.Parse()

	if *scalePointFlag != "" {
		if err := runScalePointCmd(*scalePointFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	suites := 0
	for _, on := range []bool{*metricsRun, *proxyRun, *all || *offloadRun, *all || *dataplaneRun, *scenarios, *scale} {
		if on {
			suites++
		}
	}
	if *jsonOut != "" && suites != 1 {
		fmt.Fprintf(os.Stderr, "-json holds one suite's report; %d of -metrics -proxy -offload -dataplane -scenarios -scale selected (-all selects two)\n", suites)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}

	if *traceDir != "" {
		bench.EnableTrace(0)
	}

	for _, p := range []struct {
		name string
		v    float64
	}{{"loss", *loss}, {"dup", *dup}, {"corrupt", *corrupt}, {"reorder", *reorder}} {
		if p.v < 0 || p.v > 1 {
			fmt.Fprintf(os.Stderr, "-%s=%g: want probability in [0,1]\n", p.name, p.v)
			os.Exit(1)
		}
	}
	fcfg := bench.FaultConfig{
		Rates: fault.Rates{
			Drop: *loss, Dup: *dup, Corrupt: *corrupt,
			Reorder: *reorder, ReorderBy: *reorderBy,
			Delay: *delay, Jitter: *jitter,
		},
		Plan: *faultPlan,
	}
	if err := bench.SetFaults(fcfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opt := bench.Options{LatRounds: *rounds, TotalBytes: *mb << 20}
	ran := false

	if *list {
		ran = true
		all := append(append(bench.DECConfigs(), bench.I486Configs()...), bench.NewAPIConfigs()...)
		all = append(all, bench.OffloadConfig())
		for _, c := range all {
			fmt.Printf("%-24s %s\n", c.Platform, c.Name)
		}
	}
	if *config != "" {
		ran = true
		cfg, err := bench.FindConfig(*config)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		row := bench.RunTable2Row(cfg, opt)
		fmt.Println(bench.FormatTable2("Configuration: "+cfg.Name, []bench.Table2Row{row}))
	}

	if *all || *table == 2 {
		ran = true
		rows := bench.RunTable2(opt)
		fmt.Println(bench.FormatTable2(
			"Table 2: TCP throughput and TCP/UDP round-trip latency", rows))
	}
	if *all || *table == 3 {
		ran = true
		rows := bench.RunTable3(opt)
		fmt.Println(bench.FormatTable2(
			"Table 3: the modified socket interface (NEWAPI)", rows))
	}
	if *all || *table == 4 {
		ran = true
		runTable4(opt)
	}
	if *all || *sweep {
		ran = true
		for _, cfg := range bench.DECConfigs() {
			pts := bench.SweepBuffers(cfg, opt.TotalBytes/4, nil)
			fmt.Println(bench.FormatSweep(cfg, pts))
		}
	}
	if *all || *ablations {
		ran = true
		fmt.Println(bench.FormatAblations(bench.RunAblations(opt)))
	}
	if *metricsRun {
		ran = true
		if err := runMetrics(cmp.Or(*jsonOut, "-"), *benchLabel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *proxyRun {
		ran = true
		if err := runProxy(cmp.Or(*jsonOut, "-"), *benchLabel, *proxyMB<<20); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *all || *offloadRun {
		ran = true
		if err := runOffload(*jsonOut, *benchLabel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *all || *dataplaneRun {
		ran = true
		if err := runDataplane(*jsonOut, *benchLabel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *scenarios {
		ran = true
		if err := runScenarios(*jsonOut, *benchLabel, *scenarioSeed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
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
		if err := runScale(*jsonOut, *benchLabel, *scaleArch, *scaleSeed, *scaleHosts, shardCounts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if bench.FaultsActive() {
		if rep := bench.FaultReport(); rep != "" {
			fmt.Println(rep)
		}
	}
	if *traceDir != "" {
		msg, err := bench.DumpSlowest(*traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(msg)
	}
}

// runMetrics runs the registry digest suite against the paper's
// headline Library-SHM-IPF system and writes the report.
func runMetrics(path, label string) error {
	cfg := bench.HeadlineConfig()
	results, err := bench.RunMetricsSuite(cfg)
	if err != nil {
		return err
	}
	return writeReport(path, label, "metrics", nil, cfg.Name, results)
}

// runProxy measures the socket-to-socket forwarding workload — the
// flat-buffer loop against the chain and splice paths — on every
// architecture column, and writes the report.
func runProxy(path, label string, totalBytes int) error {
	results, err := bench.RunProxySuite(totalBytes)
	if err != nil {
		return err
	}
	return writeReport(path, label, "proxy", nil, "", results)
}

func runTable4(opt Options) {
	decs := bench.DECConfigs()
	styles := []bench.SysConfig{decs[5], decs[0], decs[2]} // Library, Kernel, Server

	var tcpCells, udpCells []bench.Breakdown
	for _, cfg := range styles {
		for _, size := range []int{1, 1460} {
			tcpCells = append(tcpCells, bench.RunBreakdown(cfg, true, size, opt.LatRounds))
		}
	}
	for _, cfg := range styles {
		for _, size := range []int{1, 1472} {
			udpCells = append(udpCells, bench.RunBreakdown(cfg, false, size, opt.LatRounds))
		}
	}
	fmt.Println(bench.FormatTable4("Table 4 (TCP): per-layer latency, µs per one-way message", tcpCells))
	fmt.Println(bench.FormatTable4("Table 4 (UDP): per-layer latency, µs per one-way message", udpCells))
}

// Options aliases bench.Options for the local helper signature.
type Options = bench.Options
