package main

import "math"

// paperCell is one DECstation 5000/200 row of the paper's Table 2, as
// quoted in EXPERIMENTS.md: TCP throughput of the 16 MB ttcp transfer
// and the 1-byte round-trip latencies.
type paperCell struct {
	throughputKBps float64
	tcpLat1BMs     float64
	udpLat1BMs     float64
}

// paperTable2 has a cell for each of the three paper columns. newapi is
// Table 3 and offload is not in the paper, so neither appears.
var paperTable2 = map[string]paperCell{
	colInkernel: {throughputKBps: 1070, tcpLat1BMs: 1.40, udpLat1BMs: 1.45}, // Mach 2.5 In-Kernel
	colUxserver: {throughputKBps: 740, tcpLat1BMs: 3.64, udpLat1BMs: 3.61},  // Mach 3.0+UX Server
	colCore:     {throughputKBps: 1088, tcpLat1BMs: 1.72, udpLat1BMs: 1.23}, // Library-SHM-IPF
}

// paperErrPct is the mean absolute deviation, in percent, of the rep's
// virtual results from the paper's cells: throughput on bulk, 1-byte
// TCP and UDP latency on rpc. Other workloads have no paper cell.
func paperErrPct(wl *workload, rep *repResult) (float64, bool) {
	var sum float64
	n := 0
	dev := func(got, want float64) {
		sum += math.Abs(got-want) / want * 100
		n++
	}
	for _, col := range []string{colInkernel, colUxserver, colCore} {
		c := rep.col(col, wl)
		if c == nil {
			return 0, false
		}
		cell := paperTable2[col]
		switch wl.name {
		case "bulk":
			dev(c.goodputKBps(), cell.throughputKBps)
		case "rpc":
			dev(c.tcpLatMs, cell.tcpLat1BMs)
			dev(c.udpLatMs, cell.udpLat1BMs)
		default:
			return 0, false
		}
	}
	return sum / float64(n), true
}
