// Command psdbench regenerates the evaluation of "Protocol Service
// Decomposition for High-Performance Networking" (Maeda & Bershad,
// SOSP '93), one suite per run: Tables 2, 3 and 4, the receive-buffer
// sweep, the ablations, and the reports checked in as BENCH_<suite>.json.
//
//	psdbench <suite> [flags]                 # psdbench alone lists the suites
//	psdbench table2 -config NAME -mb 1       # one configuration (names: psdbench list)
//	psdbench metrics -json BENCH_metrics.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/psd"
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

// opts holds every flag's value; a suite reads only the flags its entry
// names.
type opts struct {
	config, faultPlan, trace, json, label         string
	scaleArch, scalePoint, cpuprofile, memprofile string
	rounds, mb, proxyMB, scaleHosts, shards       int
	seed                                          int64
	bench                                         bench.Options // from -rounds and -mb, with -faultplan and -trace as its Env
}

// suite is one entry of the table psdbench is: `psdbench <name>` runs it.
// flags names the flags it reads besides -cpuprofile, -memprofile and below.
type suite struct {
	name, doc, flags string
	env              bool   // builds its worlds in bench.Env, so it reads -faultplan and -trace
	report           bool   // its rows are the report checked in as BENCH_<name>.json; it reads -json and -label
	wall             bool   // its rows measure the host's clock, so its checked-in report cannot re-derive
	config           string // the configuration its report records
	// rows returns what the suite measured, text or a slice of report
	// rows, after emitting any it printed as they were measured.
	rows     func(o *opts, emit func(any)) (any, error)
	failures func(row any) []string // what a report row failed, printed under it; a failed row fails the run
}

var suites = []suite{
	{name: "table2", doc: "Table 2: TCP throughput and TCP/UDP round-trip latency, or one -config", flags: "config rounds mb", env: true,
		rows: func(o *opts, _ func(any)) (any, error) {
			if o.config == "" {
				return bench.FormatTable2("Table 2: TCP throughput and TCP/UDP round-trip latency", bench.RunTable2(o.bench)), nil
			}
			cfg, err := bench.FindConfig(o.config)
			if err != nil {
				return nil, err
			}
			return bench.FormatTable2("Configuration: "+cfg.Name, []bench.Table2Row{bench.RunTable2Row(cfg, o.bench)}), nil
		}},
	{name: "table3", doc: "Table 3: the modified socket interface (NEWAPI)", flags: "rounds mb", env: true,
		rows: func(o *opts, _ func(any)) (any, error) {
			return bench.FormatTable2("Table 3: the modified socket interface (NEWAPI)", bench.RunTable3(o.bench)), nil
		}},
	{name: "table4", doc: "Table 4: per-layer latency breakdown, TCP and UDP", flags: "rounds", env: true,
		rows: func(o *opts, emit func(any)) (any, error) {
			decs := bench.DECConfigs()
			for _, tcp := range []bool{true, false} {
				proto, sizes := "TCP", bench.TCPSizes
				if !tcp {
					proto, sizes = "UDP", bench.UDPSizes
				}
				var cells []bench.Breakdown
				for _, cfg := range []bench.SysConfig{decs[5], decs[0], decs[2]} { // Library, Kernel, Server
					for _, size := range []int{sizes[0], sizes[len(sizes)-1]} { // the paper's min and max
						cells = append(cells, bench.RunBreakdown(o.bench.Env, cfg, tcp, size, o.rounds))
					}
				}
				emit(bench.FormatTable4("Table 4 ("+proto+"): per-layer latency, µs per one-way message", cells))
			}
			return nil, nil
		}},
	{name: "sweep", doc: "receive-buffer sweeps of every DECstation configuration", flags: "mb", env: true,
		rows: func(o *opts, emit func(any)) (any, error) {
			for _, cfg := range bench.DECConfigs() {
				emit(bench.FormatSweep(cfg, bench.SweepBuffers(o.bench.Env, cfg, o.mb<<20/4, nil)))
			}
			return nil, nil
		}},
	{name: "ablations", doc: "design-choice ablations", flags: "rounds mb", env: true,
		rows: func(o *opts, _ func(any)) (any, error) {
			return bench.FormatAblations(bench.RunAblations(o.bench)), nil
		}},
	{name: "list", doc: "the configuration names -config takes",
		rows: func(_ *opts, emit func(any)) (any, error) {
			for _, c := range bench.AllConfigs() {
				emit(fmt.Sprintf("%-24s %s", c.Platform, c.Name))
			}
			return nil, nil
		}},
	{name: "metrics", doc: "registry digest of three workloads on the headline configuration", env: true, report: true, config: bench.HeadlineConfig().Name, rows: func(o *opts, _ func(any)) (any, error) {
		return bench.RunMetricsSuite(o.bench.Env, bench.HeadlineConfig())
	}},
	{name: "proxy", doc: "socket-to-socket forwarding, bsd vs chain vs splice, on every architecture column", flags: "proxy-mb", env: true, report: true, rows: func(o *opts, _ func(any)) (any, error) { return bench.RunProxySuite(o.bench.Env, o.proxyMB<<20) }},
	{name: "offload", doc: "NIC offload: tcp-steady at several loads, splice proxy and churn, on every column", env: true, report: true, rows: func(o *opts, _ func(any)) (any, error) { return bench.RunOffloadSuite(o.bench.Env) }},
	{name: "dataplane", doc: "throughput and latency vs filter-chain length, and the L4 balancer churn, on every column", env: true, report: true, rows: func(o *opts, _ func(any)) (any, error) { return bench.RunDataplaneSuite(o.bench.Env) }},
	{name: "scenarios", doc: "every internet-scale scenario on every architecture, gated on its SLOs", flags: "seed", report: true,
		rows: func(o *opts, _ func(any)) (any, error) {
			var results []*psd.ScenarioResult
			for _, name := range psd.ScenarioNames() {
				for _, a := range psd.ArchFlavors() {
					res, err := psd.RunScenario(psd.ScenarioConfig{Name: name, Seed: o.seed, Arch: a})
					if err != nil {
						return nil, err
					}
					results = append(results, res)
				}
			}
			return results, nil
		},
		failures: func(row any) (failed []string) {
			for _, r := range row.(*psd.ScenarioResult).SLO {
				if !r.OK {
					failed = append(failed, r.String())
				}
			}
			return failed
		}},
	{name: "scale", doc: "RunCity at growing host counts, classic loop vs shard groups, gated on the multi-shard speed-up", flags: "seed scale-arch scale-hosts shards scale-point", report: true, wall: true, rows: scale},
}

// reads reports whether the suite reads the named flag.
func (s *suite) reads(name string) bool {
	flags := s.flags + " cpuprofile memprofile"
	if s.env {
		flags += " faultplan trace"
	}
	if s.report {
		flags += " json label"
	}
	return slices.Contains(strings.Fields(flags), name)
}

// seed is the seed the suite's report records: -seed, if it reads it.
func (s *suite) seed(o *opts) *int64 {
	if s.reads("seed") {
		return &o.seed
	}
	return nil
}

// parse picks the suite args[0] names and reads the flags after it. A
// missing or unknown suite, a bad flag, or a flag the suite does not
// read is errUsage, said on stderr before anything runs.
func parse(args []string) (*suite, *opts, error) {
	o := &opts{}
	fs := flag.NewFlagSet("psdbench", flag.ContinueOnError)
	fs.StringVar(&o.config, "config", "", "measure one named configuration (names: psdbench list)")
	fs.IntVar(&o.rounds, "rounds", 300, "round trips per latency cell")
	fs.IntVar(&o.mb, "mb", 16, "ttcp transfer size in MB")
	fs.IntVar(&o.proxyMB, "proxy-mb", 4, "bytes forwarded per proxy cell, in MB")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the scenario traffic generators and of the scale city")
	fs.StringVar(&o.faultPlan, "faultplan", "", "faults on every world, as a fault plan (DSL, see EXPERIMENTS.md), e.g. '@0 rates drop=0.01 jitter=1ms; @2s partition A|B for=500ms'")
	fs.StringVar(&o.trace, "trace", "", "record every run on the flight recorder and dump the slowest run's trace (text, pcap, Chrome JSON) into this directory")
	fs.StringVar(&o.json, "json", "", "write the report to this file in the shape of the checked-in BENCH_*.json (\"-\": to stdout, as the only output)")
	fs.StringVar(&o.label, "label", "", "label stored in the JSON report (default \"psdbench\")")
	fs.StringVar(&o.scaleArch, "scale-arch", "decomposed", "architecture of the scale city (decomposed, inkernel, server, offload)")
	fs.IntVar(&o.scaleHosts, "scale-hosts", 10000, "largest host count of the scale sweep")
	fs.IntVar(&o.shards, "shards", -1, "sweep only the classic loop plus this shard count (default: classic, 1, 4, and 8 shards)")
	fs.StringVar(&o.scalePoint, "scale-point", "", "internal: measure only the scale cell <hosts>/<shards>, in this process")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit (go tool pprof)")
	fs.Usage = func() { usage(fs) }

	i := slices.IndexFunc(suites, func(s suite) bool { return len(args) > 0 && s.name == args[0] })
	if i < 0 {
		if len(args) > 0 {
			fmt.Fprintf(fs.Output(), "psdbench: no suite %q\n", args[0])
		}
		fs.Usage()
		return nil, nil, errUsage
	}
	s := &suites[i]
	if fs.Parse(args[1:]) != nil {
		return nil, nil, errUsage
	}
	refused := fs.Args()
	fs.Visit(func(f *flag.Flag) {
		if !s.reads(f.Name) {
			refused = append(refused, "-"+f.Name)
		}
	})
	if len(refused) > 0 {
		fmt.Fprintf(fs.Output(), "psdbench %s does not read %s\n", s.name, strings.Join(refused, " "))
		return nil, nil, errUsage
	}
	o.bench = bench.Options{LatRounds: o.rounds, TotalBytes: o.mb << 20, Env: &bench.Env{Trace: o.trace != ""}}
	return s, o, o.bench.Env.SetFaults(o.faultPlan)
}

// usage prints the command line, every suite with the flags it reads,
// and the flags.
func usage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprintln(w, "usage: psdbench <suite> [flags]\n\nsuites, and the flags each reads:")
	for _, s := range suites {
		var names []string
		fs.VisitAll(func(f *flag.Flag) {
			if s.reads(f.Name) && !strings.HasSuffix(f.Name, "profile") {
				names = append(names, "-"+f.Name)
			}
		})
		fmt.Fprintf(w, "  %-10s %s\n  %-10s %s\n", s.name, s.doc, "", strings.Join(names, " "))
	}
	fmt.Fprintln(w, "\nflags (every suite reads -cpuprofile and -memprofile):")
	fs.PrintDefaults()
}

// run is the whole program minus the exit status: it runs the suite
// args name and writes its output to stdout, so tests can drive the
// flag paths against golden output.
func run(args []string, stdout io.Writer) error {
	s, o, err := parse(args)
	if err != nil {
		return err
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err == nil {
			defer f.Close()
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.memprofile != "" {
		defer func() {
			f, err := os.Create(o.memprofile)
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(f)
				f.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	out := stdout
	if o.json == "-" {
		out = io.Discard
	}
	rows, err := runSuite(s, o, out)
	if werr := writeReport(stdout, o.json, o.label, s.name, s.seed(o), s.config, rows); err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	if rep := o.bench.Env.FaultReport(); rep != "" {
		fmt.Fprintln(out, rep)
	}
	if o.trace == "" {
		return nil
	}
	msg, err := o.bench.Env.DumpSlowest(o.trace)
	if err == nil {
		fmt.Fprintln(out, msg)
	}
	return err
}

// runSuite runs s, printing to w everything it emits and returns, and
// returns its report rows (none for a text suite).
func runSuite(s *suite, o *opts, w io.Writer) ([]any, error) {
	p := printer{w: w, failures: s.failures}
	var rows []any
	emit := func(batch any) {
		p.print(batch)
		if v := reflect.ValueOf(batch); v.Kind() == reflect.Slice {
			for i := range v.Len() {
				rows = append(rows, v.Index(i).Interface())
			}
		}
	}
	last, err := s.rows(o, emit)
	if last != nil {
		emit(last)
	}
	if err == nil && p.failed > 0 {
		err = fmt.Errorf("%d %s row(s) failed", p.failed, s.name)
	}
	return rows, err
}
