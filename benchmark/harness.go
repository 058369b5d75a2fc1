package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// processStart approximates the child's start: package initialization
// runs right after the Go runtime comes up.
var processStart = time.Now()

// repResult is one rep: every column of the workload, run once.
type repResult struct {
	cols       []colRun
	ops        int
	failed     int
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	events     uint64
	simWall    time.Duration
}

// runRep runs every column of the workload once, measuring host time
// and heap traffic around each. The collector is run beforehand so a
// rep never pays for its predecessor's garbage.
func runRep(wl *workload, run func(string, *tracing) colRun, log *spanLog) repResult {
	var rep repResult
	runtime.GC()
	repSpan := log.begin(0, "benchmark", wl.name+" rep", clockHost, log.hostNow())
	var before, after runtime.MemStats
	for _, col := range wl.columns {
		var tr *tracing
		if log != nil {
			tr = &tracing{log: log, parent: log.begin(repSpan, col, wl.name+"/"+col, clockHost, log.hostNow())}
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		c := run(col, tr)
		c.wall = time.Since(t0)
		runtime.ReadMemStats(&after)
		c.mallocs = after.Mallocs - before.Mallocs
		c.allocBytes = after.TotalAlloc - before.TotalAlloc
		log.end(tr.span(), log.hostNow(), "")

		rep.cols = append(rep.cols, c)
		rep.ops += c.ops
		rep.failed += c.failed
		rep.wall += c.wall
		rep.mallocs += c.mallocs
		rep.allocBytes += c.allocBytes
		rep.events += c.events
		rep.simWall += c.simWall
	}
	log.end(repSpan, log.hostNow(), "")
	return rep
}

// col returns the named column's run, or nil.
func (r *repResult) col(name string, wl *workload) *colRun {
	for i, c := range wl.columns {
		if c == name {
			return &r.cols[i]
		}
	}
	return nil
}

// signature digests everything about a rep that lives on the virtual
// clock, plus the event count. Every rep of a run must produce the
// same one.
func (r *repResult) signature() uint64 {
	h := fnv.New64a()
	for i := range r.cols {
		c := &r.cols[i]
		fmt.Fprintf(h, "%d %d %d %d %d %v %v|", c.ops, c.bytes, c.virt, c.events, c.conns, c.tcpLatMs, c.udpLatMs)
		for _, s := range [][]float64{c.rtt, c.connect} {
			for _, v := range s {
				fmt.Fprintf(h, "%x,", math.Float64bits(v))
			}
			h.Write([]byte{'|'}) // fnv's Write never fails
		}
	}
	return h.Sum64()
}

// metricValue is one reported number. Q1, Q3 and N describe the reps
// the median was taken over (host metrics only).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Reps      int                    `json:"reps"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Digest is the rep signature: equal digests mean bit-identical
	// virtual results and event counts.
	Digest string `json:"digest"`
}

// setUp runs the workload's set-up — draw the seeded inputs, build the
// topology, run one warm-up rep — setups times and returns the last
// prepared run function, the warm-up rep and the median set-up time.
// The process start-up that precedes the first set-up is added once.
func setUp(wl *workload, seed int64, smoke bool, setups int) (func(string, *tracing) colRun, repResult, float64) {
	startup := time.Since(processStart).Seconds()
	var times []float64
	var run func(string, *tracing) colRun
	var warm repResult
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		run = wl.prepare(seed, smoke)
		warm = runRep(wl, run, nil)
		times = append(times, time.Since(t0).Seconds())
	}
	return run, warm, startup + median(times)
}

// repsFor scales the workload's rep count to the requested run length.
func repsFor(wl *workload, seconds float64, smoke bool) int {
	if smoke {
		return 3
	}
	n := int(math.Round(float64(wl.reps) * seconds / 10))
	if n < 3 {
		n = 3
	}
	return n
}

// measure is an untraced run: set-up (three times over, so that
// setup_s is a median), then the timed reps.
func measure(wl *workload, seed int64, seconds float64, smoke bool) *runResult {
	run, warm, setupS := setUp(wl, seed, smoke, 3)
	want := warm.signature()
	res := &runResult{Workload: wl.name, Seed: seed, Metrics: map[string]metricValue{}, Digest: fmt.Sprintf("%016x", want)}

	n := repsFor(wl, seconds, smoke)
	budget := time.Duration(1.5 * seconds * float64(time.Second))
	var wallUs, allocs, allocB []float64
	var first repResult
	start := time.Now()
	for i := 0; i < n; i++ {
		// The rep count is fixed so peak memory does not depend on the
		// machine's speed; the budget only stops a run on a much slower
		// machine from overrunning the driver's time limit.
		if i >= 3 && time.Since(start) > budget {
			break
		}
		rep := runRep(wl, run, nil)
		if i == 0 {
			first = rep
		}
		res.Reps++
		res.Attempted += rep.ops
		res.Failed += rep.failed
		for _, c := range rep.cols {
			res.Errors = appendErrs(res.Errors, c.errs)
		}
		if rep.signature() != want {
			res.Failed += rep.ops - rep.failed
			res.Errors = appendErrs(res.Errors, []string{fmt.Sprintf("rep %d: virtual results differ from the warm-up rep", i+1)})
		}
		ops := float64(rep.ops)
		wallUs = append(wallUs, float64(rep.wall)/1e3/ops)
		allocs = append(allocs, float64(rep.mallocs)/ops)
		allocB = append(allocB, float64(rep.allocBytes)/ops)
	}

	res.Metrics["wall_us_per_op"] = summarize(wallUs, "us")
	res.Metrics["allocs_per_op"] = summarize(allocs, "count")
	res.Metrics["alloc_bytes_per_op"] = summarize(allocB, "B")
	res.Metrics["peak_rss_mib"] = metricValue{Value: peakRSSMiB(), Unit: "MiB"}
	res.Metrics["setup_s"] = metricValue{Value: setupS, Unit: "s"}
	// Virtual end-to-end metrics: the reference column of this run's
	// simulation, pooled with the workload's seeded variants of it.
	virt := *first.col(colCore, wl)
	for i := 1; i < wl.pool; i++ {
		c := wl.prepare(sim.StreamSeed(seed, fmt.Sprintf("pool/%d", i)), smoke)(colCore, nil)
		res.Attempted += c.ops
		res.Failed += c.failed
		res.Errors = appendErrs(res.Errors, c.errs)
		virt.bytes += c.bytes
		virt.virt += c.virt
		virt.rtt = append(virt.rtt, c.rtt...)
		virt.connect = append(virt.connect, c.connect...)
	}
	rtt := virt.exchanges(wl)
	res.Metrics["virt_goodput_kbps"] = metricValue{Value: virt.goodputKBps(), Unit: "virt_KB/s"}
	res.Metrics["virt_rtt_us_p50"] = metricValue{Value: quantile(rtt, 0.50), Unit: "virt_us"}
	res.Metrics["virt_rtt_us_p99"] = metricValue{Value: tailQuantile(rtt), Unit: "virt_us"}
	res.Metrics["virt_connect_us_p50"] = metricValue{Value: quantile(virt.connect, 0.50), Unit: "virt_us"}
	res.Metrics["virt_connect_us_p99"] = metricValue{Value: tailQuantile(virt.connect), Unit: "virt_us"}
	// The two metrics ISSUE 11 defines that BENCHMARK.json cannot carry
	// as end-to-end metrics (see README "Contract"): reported here and
	// by -compare all the same.
	if v, ok := paperErrPct(wl, &first); ok {
		res.Metrics["paper_err_pct"] = metricValue{Value: v, Unit: "%"}
	}
	res.Metrics["failed_share"] = metricValue{Value: float64(res.Failed) / float64(res.Attempted), Unit: "share"}
	return res
}

func appendErrs(dst, src []string) []string {
	for _, e := range src {
		if len(dst) < 8 {
			dst = append(dst, e)
		}
	}
	return dst
}

// summarize reports the median of per-rep values with their quartiles.
func summarize(v []float64, unit string) metricValue {
	q1, q3 := quartiles(v)
	return metricValue{Value: median(v), Unit: unit, Q1: q1, Q3: q3, N: len(v)}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantileSorted(sorted(v), 0.5) }

// quartiles follows Python's statistics.quantiles(v, n=4) (the
// exclusive method), which is what the driver computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// quantile is the nearest-rank quantile of unsorted samples (0 if none).
func quantile(v []float64, q float64) float64 { return quantileSorted(sorted(v), q) }

// tailQuantile is the 99th percentile when at least ten samples lie
// beyond it; with fewer samples it is the highest percentile that still
// has ten beyond it, and with too few for any tail (the one-connection
// workloads) the median. A p99 resting on one or two samples would be
// whatever the unluckiest of them happened to be.
func tailQuantile(v []float64) float64 {
	s := sorted(v)
	switch {
	case len(s) >= 1000:
		return quantileSorted(s, 0.99)
	case len(s) > 20:
		return s[len(s)-11]
	}
	return quantileSorted(s, 0.5)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return rssFromRuntime()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return rssFromRuntime()
}

// rssFromRuntime is the fallback where /proc is unavailable: memory the
// Go runtime obtained from the OS.
func rssFromRuntime() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
