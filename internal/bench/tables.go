package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/costs"
)

// Message sizes for the latency columns, as in the paper: the maximum is
// the largest unfragmented Ethernet payload (1460 for TCP with a 20-byte
// TCP header, 1472 for UDP with an 8-byte UDP header).
var (
	TCPSizes = []int{1, 100, 512, 1024, 1460}
	UDPSizes = []int{1, 100, 512, 1024, 1472}
)

// Options tunes how much work the table runners do, and names the
// environment they build their worlds in.
type Options struct {
	LatRounds  int  // round trips per latency cell
	TotalBytes int  // ttcp transfer size
	Env        *Env // nil builds clean worlds
}

// QuickOptions is for tests.
func QuickOptions() Options {
	return Options{LatRounds: 50, TotalBytes: 2 << 20}
}

// Table2Row is one measured row of Table 2 (or Table 3).
type Table2Row struct {
	Config     string
	Platform   string
	Throughput float64 // KB/s
	RcvBufKB   int
	TCPLat     []LatResult
	UDPLat     []LatResult
}

// RunTable2Row measures one configuration.
func RunTable2Row(cfg SysConfig, opt Options) Table2Row {
	row := Table2Row{Config: cfg.Name, Platform: cfg.Platform, RcvBufKB: cfg.RcvBufKB}
	tr := RunTTCP(opt.Env, cfg, cfg.RcvBufKB, opt.TotalBytes)
	row.Throughput = tr.KBps()
	if tr.Err != nil {
		row.Throughput = 0
	}
	for _, size := range TCPSizes {
		row.TCPLat = append(row.TCPLat, RunProtolat(opt.Env, cfg, false, size, opt.LatRounds))
	}
	for _, size := range UDPSizes {
		row.UDPLat = append(row.UDPLat, RunProtolat(opt.Env, cfg, true, size, opt.LatRounds))
	}
	return row
}

// RunTable2 reproduces the full Table 2: both platforms, all
// configurations.
func RunTable2(opt Options) []Table2Row {
	var rows []Table2Row
	for _, cfg := range DECConfigs() {
		rows = append(rows, RunTable2Row(cfg, opt))
	}
	for _, cfg := range I486Configs() {
		rows = append(rows, RunTable2Row(cfg, opt))
	}
	return rows
}

// RunTable3 reproduces Table 3: the NEWAPI rows (the paper also repeats
// the two in-kernel rows for comparison; include them).
func RunTable3(opt Options) []Table2Row {
	var rows []Table2Row
	for _, cfg := range DECConfigs()[:2] { // Mach 2.5, Ultrix for reference
		rows = append(rows, RunTable2Row(cfg, opt))
	}
	for _, cfg := range NewAPIConfigs() {
		rows = append(rows, RunTable2Row(cfg, opt))
	}
	return rows
}

// FormatTable2 renders rows in the paper's layout.
func FormatTable2(title string, rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-36s %11s %8s | %-37s | %-37s\n", "", "Throughput", "RcvBuf", "TCP latency ms (msg bytes)", "UDP latency ms (msg bytes)")
	fmt.Fprintf(&b, "%-36s %11s %8s | %7d %7d %7d %7d %7d | %7d %7d %7d %7d %7d\n",
		"Configuration", "(KB/sec)", "(KB)",
		TCPSizes[0], TCPSizes[1], TCPSizes[2], TCPSizes[3], TCPSizes[4],
		UDPSizes[0], UDPSizes[1], UDPSizes[2], UDPSizes[3], UDPSizes[4])
	line := strings.Repeat("-", 140)
	fmt.Fprintln(&b, line)
	lastPlatform := ""
	for _, r := range rows {
		if r.Platform != lastPlatform {
			fmt.Fprintf(&b, "%s\n", r.Platform)
			lastPlatform = r.Platform
		}
		fmt.Fprintf(&b, "%-36s %11.0f %8d |", r.Config, r.Throughput, r.RcvBufKB)
		for _, l := range r.TCPLat {
			fmt.Fprintf(&b, " %7s", latCell(l))
		}
		fmt.Fprintf(&b, " |")
		for _, l := range r.UDPLat {
			fmt.Fprintf(&b, " %7s", latCell(l))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func latCell(l LatResult) string {
	if l.NA {
		return "NA"
	}
	if l.Err != nil {
		return "ERR"
	}
	return fmt.Sprintf("%.2f", l.Ms())
}

// --- Table 4: the per-layer latency breakdown ---

// Breakdown is the averaged per-packet time in each layer for one
// configuration/protocol/size cell of Table 4.
type Breakdown struct {
	Config  string
	TCP     bool
	MsgSize int
	// PerLayer is the average one-way time per message in each component.
	PerLayer [costs.NumComponents]time.Duration
	Transit  time.Duration
}

// sum adds the per-layer times of comps.
func (b Breakdown) sum(comps []costs.Component) (t time.Duration) {
	for _, c := range comps {
		t += b.PerLayer[c]
	}
	return t
}

// SendTotal sums the send-path components.
func (b Breakdown) SendTotal() time.Duration { return b.sum(costs.SendComponents) }

// RecvTotal sums the receive-path components.
func (b Breakdown) RecvTotal() time.Duration { return b.sum(costs.RecvComponents) }

// RunBreakdown runs protolat and reads the growth of both hosts' CPU
// ledgers over the measured rounds (the warmup round is left out),
// averaged per one-way message, as the paper's Table 4 does. As in the
// paper, TCP numbers only approximate the critical path because
// acknowledgement traffic is attributed too. The world is built in env.
func RunBreakdown(env *Env, cfg SysConfig, tcp bool, msgSize, rounds int) Breakdown {
	cfg.RawCosts = true // the paper's Table 4 came from the instrumented build
	bd := Breakdown{Config: cfg.Name, TCP: tcp, MsgSize: msgSize}

	w := latWorld(env, cfg, false)
	var from, to [costs.NumComponents]time.Duration
	res := runProtolatOn(w, tcp, msgSize, rounds, func(on bool) {
		if on {
			from = w.ledger()
		} else {
			to = w.ledger()
		}
	})
	if res.Err != nil {
		return bd
	}
	// Each round trip crosses each path component twice (once per host).
	for comp := range bd.PerLayer {
		bd.PerLayer[comp] = (to[comp] - from[comp]) / time.Duration(2*rounds)
	}
	bd.Transit = wireTransit(msgSize, tcp)
	return bd
}

// FormatTable4 renders breakdowns in the paper's Table 4 layout: columns
// are (config × min/max size), rows are layers.
func FormatTable4(title string, cells []Breakdown) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-22s", "Layer (µs)")
	for _, c := range cells {
		fmt.Fprintf(&b, " %9s", fmt.Sprintf("%s/%d", shortName(c.Config), c.MsgSize))
	}
	fmt.Fprintln(&b)
	row := func(name string, d func(Breakdown) time.Duration) {
		fmt.Fprintf(&b, "  %-20s", name)
		for _, c := range cells {
			fmt.Fprintf(&b, " %9.0f", float64(d(c))/1000)
		}
		fmt.Fprintln(&b)
	}
	path := func(title, total string, comps []costs.Component) {
		fmt.Fprintln(&b, title)
		for _, comp := range comps {
			row(comp.String(), func(c Breakdown) time.Duration { return c.PerLayer[comp] })
		}
		row(total, func(c Breakdown) time.Duration { return c.sum(comps) })
	}
	path("Send path", "send total", costs.SendComponents)
	path("Receive path", "recv total", costs.RecvComponents)
	row("network transit", func(c Breakdown) time.Duration { return c.Transit })
	row("one-way total", func(c Breakdown) time.Duration { return c.SendTotal() + c.RecvTotal() + c.Transit })
	return b.String()
}

func shortName(s string) string {
	switch {
	case strings.Contains(s, "Library"):
		return "Lib"
	case strings.Contains(s, "Kernel"):
		return "Kern"
	case strings.Contains(s, "Server"):
		return "Srv"
	}
	return s
}

// wireTransit is the serialization time of one message's frame at
// 10 Mb/s, matching the paper's "network transit time" row.
func wireTransit(msgSize int, tcp bool) time.Duration {
	hdr := 8
	if tcp {
		hdr = 20
	}
	frame := 14 + 20 + hdr + msgSize + 4
	if frame < 64 {
		frame = 64
	}
	return time.Duration(frame) * 800 * time.Nanosecond
}
