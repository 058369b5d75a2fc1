package bench

import (
	"fmt"
	"testing"
	"time"
)

// Hot-path wall-clock benchmarking: the simulator's own performance, as
// opposed to the virtual-time results it reproduces. Every workload here
// is a Table 2/3 workload run end to end; the metrics are the real-world
// cost of carrying it (ns, bytes allocated, allocations), plus the
// headline ratio of virtual seconds simulated per real second burned.
// psdbench -json emits these as BENCH_hotpath.json so each PR leaves a
// recorded perf trajectory (compare runs with benchstat or by eye).

// HotpathMetrics is one measured workload.
type HotpathMetrics struct {
	// Name identifies the workload ("tcp-steady/Library-SHM-IPF", ...).
	Name string `json:"name"`
	// NsPerOp is wall-clock nanoseconds per complete workload run.
	NsPerOp int64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are the Go allocator's per-run totals.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// VirtSeconds is the virtual time one run simulates.
	VirtSeconds float64 `json:"virt_seconds"`
	// SimPerReal is virtual seconds simulated per wall-clock second: the
	// "runs as fast as the hardware allows" headline number (higher is
	// better).
	SimPerReal float64 `json:"sim_per_real"`
	// Segments is the number of frames the primary sender transmitted in
	// one run, for per-segment normalization.
	Segments int `json:"segments"`
	// AllocsPerSegment = AllocsPerOp / Segments (0 when unknown).
	AllocsPerSegment float64 `json:"allocs_per_segment"`
}

// hotpathWorkload is one entry of the suite.
type hotpathWorkload struct {
	name string
	run  func(totalBytes, rounds int) (virt time.Duration, segments int, err error)
}

func hotpathSuite() []hotpathWorkload {
	decs := DECConfigs()
	newapi := NewAPIConfigs()
	library := decs[5] // Library-SHM-IPF: the paper's headline configuration
	kernel := decs[0]  // Mach 2.5 in-kernel baseline
	server := decs[2]  // UX server
	zc := newapi[2]    // NEWAPI Library-SHM-IPF (Table 3)

	ttcp := func(cfg SysConfig) func(int, int) (time.Duration, int, error) {
		return func(totalBytes, _ int) (time.Duration, int, error) {
			unhook := setBuildHook(func(w *World) { hookWorld = w })
			defer unhook()
			r := RunTTCP(cfg, cfg.RcvBufKB, totalBytes)
			segs := 0
			if hookWorld != nil {
				segs = int(hookWorld.hostA.NIC.TxFrames.Value())
			}
			return r.Duration, segs, r.Err
		}
	}
	lat := func(cfg SysConfig, udp bool, size int) func(int, int) (time.Duration, int, error) {
		return func(_, rounds int) (time.Duration, int, error) {
			r := RunProtolat(cfg, udp, size, rounds)
			return time.Duration(r.Rounds) * r.Avg, r.Rounds * 2, r.Err
		}
	}

	return []hotpathWorkload{
		{"tcp-steady/Library-SHM-IPF", ttcp(library)},
		{"tcp-steady/Kernel-Mach2.5", ttcp(kernel)},
		{"tcp-steady/Server-UX", ttcp(server)},
		{"tcp-steady/NEWAPI-SHM-IPF", ttcp(zc)},
		{"tcp-latency-1460/Library-SHM-IPF", lat(library, false, 1460)},
		{"udp-latency-1472/Library-SHM-IPF", lat(library, true, 1472)},
	}
}

// hookWorld captures the last world a workload built, so the harness can
// read NIC counters after the run.
var hookWorld *World

// setBuildHook installs fn as the world build observer (see buildHook in
// sweep.go), returning a restore function.
func setBuildHook(fn func(*World)) (unhook func()) {
	prev := buildHook
	buildHook = fn
	return func() { buildHook = prev; hookWorld = nil }
}

// RunHotpath measures the wall-clock hot path of the Table 2/3 workloads.
// totalBytes sizes the throughput transfers (0 means 4 MB, enough to hit
// steady state without taking minutes); rounds sizes the latency runs (0
// means 100).
func RunHotpath(totalBytes, rounds int) ([]HotpathMetrics, error) {
	if totalBytes == 0 {
		totalBytes = 4 << 20
	}
	if rounds == 0 {
		rounds = 100
	}
	var out []HotpathMetrics
	for _, wl := range hotpathSuite() {
		var virt time.Duration
		var segs int
		var runErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				virt, segs, runErr = wl.run(totalBytes, rounds)
				if runErr != nil {
					b.Fatalf("%s: %v", wl.name, runErr)
				}
			}
		})
		if runErr != nil {
			return nil, fmt.Errorf("hotpath %s: %w", wl.name, runErr)
		}
		m := HotpathMetrics{
			Name:        wl.name,
			NsPerOp:     res.NsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			VirtSeconds: virt.Seconds(),
			Segments:    segs,
		}
		if res.NsPerOp() > 0 {
			m.SimPerReal = virt.Seconds() / (float64(res.NsPerOp()) / 1e9)
		}
		if segs > 0 {
			m.AllocsPerSegment = float64(res.AllocsPerOp()) / float64(segs)
		}
		out = append(out, m)
	}
	return out, nil
}
