// Package repro_test holds the top-level benchmark harness: one
// testing.B benchmark per table and figure of the paper's evaluation.
// Each benchmark iteration runs a complete deterministic simulation and
// reports the paper's metric (virtual KB/s or virtual milliseconds) via
// b.ReportMetric — wall-clock ns/op measures only the simulator itself.
//
// Regenerate each at full scale with its psdbench suite:
//
//	go run ./cmd/psdbench table2   # likewise table3, table4, sweep, ablations
package repro_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/costs"
)

// benchBytes keeps per-iteration simulations quick; cmd/psdbench runs the
// full 16 MB transfers.
const benchBytes = 4 << 20

func benchName(s string) string {
	r := strings.NewReplacer(" ", "_", "+", "", ".", "", "/", "-")
	return r.Replace(s)
}

// BenchmarkTable2_Throughput regenerates Table 2's throughput column:
// one sub-benchmark per system configuration on both platforms.
func BenchmarkTable2_Throughput(b *testing.B) {
	for _, cfg := range append(bench.DECConfigs(), bench.I486Configs()...) {
		cfg := cfg
		b.Run(benchName(cfg.Platform+"/"+cfg.Name), func(b *testing.B) {
			var kbps float64
			for i := 0; i < b.N; i++ {
				r := bench.RunTTCP(nil, cfg, cfg.RcvBufKB, benchBytes)
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				kbps = r.KBps()
			}
			b.ReportMetric(kbps, "virtKB/s")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkTable2_Latency regenerates Table 2's latency columns for the
// 1-byte and maximum message sizes (the calibration anchors).
func BenchmarkTable2_Latency(b *testing.B) {
	for _, cfg := range bench.DECConfigs() {
		cfg := cfg
		for _, c := range []struct {
			proto string
			udp   bool
			size  int
		}{
			{"TCP", false, 1}, {"TCP", false, 1460},
			{"UDP", true, 1}, {"UDP", true, 1472},
		} {
			c := c
			b.Run(benchName(fmt.Sprintf("%s/%s/%dB", cfg.Name, c.proto, c.size)), func(b *testing.B) {
				var ms float64
				for i := 0; i < b.N; i++ {
					r := bench.RunProtolat(nil, cfg, c.udp, c.size, 100)
					if r.Err != nil {
						b.Fatal(r.Err)
					}
					ms = r.Ms()
				}
				b.ReportMetric(ms, "virtms/rt")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkTable3_NEWAPI regenerates Table 3: throughput and 1-byte
// latency under the modified (shared-buffer) socket interface.
func BenchmarkTable3_NEWAPI(b *testing.B) {
	for _, cfg := range bench.NewAPIConfigs() {
		cfg := cfg
		b.Run(benchName(cfg.Name), func(b *testing.B) {
			var kbps, udpMS float64
			for i := 0; i < b.N; i++ {
				r := bench.RunTTCP(nil, cfg, cfg.RcvBufKB, benchBytes)
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				kbps = r.KBps()
				l := bench.RunProtolat(nil, cfg, true, 1, 100)
				if l.Err != nil {
					b.Fatal(l.Err)
				}
				udpMS = l.Ms()
			}
			b.ReportMetric(kbps, "virtKB/s")
			b.ReportMetric(udpMS, "virtms/rt")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkTable4_Breakdown regenerates the Table 4 per-layer breakdown
// for the three instrumented styles, reporting each cell's one-way total.
func BenchmarkTable4_Breakdown(b *testing.B) {
	decs := bench.DECConfigs()
	styles := map[string]bench.SysConfig{
		"Library": decs[5], "Kernel": decs[0], "Server": decs[2],
	}
	for name, cfg := range styles {
		cfg := cfg
		for _, c := range []struct {
			proto string
			tcp   bool
			size  int
		}{{"UDP", false, 1}, {"UDP", false, 1472}, {"TCP", true, 1}, {"TCP", true, 1460}} {
			c := c
			b.Run(benchName(fmt.Sprintf("%s/%s/%dB", name, c.proto, c.size)), func(b *testing.B) {
				var oneWay time.Duration
				for i := 0; i < b.N; i++ {
					bd := bench.RunBreakdown(nil, cfg, c.tcp, c.size, 100)
					oneWay = bd.SendTotal() + bd.RecvTotal() + bd.Transit
				}
				b.ReportMetric(float64(oneWay)/1000, "virtus/oneway")
				b.ReportMetric(0, "ns/op")
			})
		}
	}
}

// BenchmarkBufferSweep regenerates the paper's receive-buffer methodology
// (§4.1): throughput as a function of buffer size for the library
// configuration.
func BenchmarkBufferSweep(b *testing.B) {
	cfg := bench.DECConfigs()[5]
	for _, kb := range []int{8, 24, 64, 120} {
		kb := kb
		b.Run(fmt.Sprintf("rcvbuf_%dKB", kb), func(b *testing.B) {
			var kbps float64
			for i := 0; i < b.N; i++ {
				r := bench.RunTTCP(nil, cfg, kb, benchBytes)
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				kbps = r.KBps()
			}
			b.ReportMetric(kbps, "virtKB/s")
			b.ReportMetric(0, "ns/op")
		})
	}
}

// BenchmarkAblation_NEWAPI compares the standard socket interface with
// the shared-buffer NEWAPI on the same delivery mechanism — the paper's
// §4.2 flexibility demonstration as a single number.
func BenchmarkAblation_NEWAPI(b *testing.B) {
	std := bench.DECConfigs()[5]
	na := bench.NewAPIConfigs()[2]
	var stdKB, naKB float64
	for i := 0; i < b.N; i++ {
		r1 := bench.RunTTCP(nil, std, std.RcvBufKB, benchBytes)
		r2 := bench.RunTTCP(nil, na, na.RcvBufKB, benchBytes)
		if r1.Err != nil || r2.Err != nil {
			b.Fatal(r1.Err, r2.Err)
		}
		stdKB, naKB = r1.KBps(), r2.KBps()
	}
	b.ReportMetric(stdKB, "std_virtKB/s")
	b.ReportMetric(naKB, "newapi_virtKB/s")
	b.ReportMetric(0, "ns/op")
}

// BenchmarkSimulatorOverhead measures the real-world cost of the
// simulation substrate itself: wall-clock time per simulated TCP segment
// carried end to end.
func BenchmarkSimulatorOverhead(b *testing.B) {
	cfg := bench.DECConfigs()[0]
	segs := benchBytes / 1460
	for i := 0; i < b.N; i++ {
		r := bench.RunTTCP(nil, cfg, cfg.RcvBufKB, benchBytes)
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(segs), "wallns/segment")
}

var _ = costs.DECKernelMach25 // keep the costs import for documentation links
