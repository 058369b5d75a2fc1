// Command psddump is a tcpdump-style monitor for the simulated network,
// driven by the deterministic flight recorder: it enables tracing on the
// selected layers, runs a small canned scenario on the decomposed
// architecture — an ARP exchange, a UDP round trip, and a TCP
// connect/transfer/close — and prints every recorded event with virtual
// timestamps. Transmitted frames are decoded inline (Ethernet, ARP,
// IPv4, UDP, TCP, ICMP), so the whole packet-level story of the paper's
// design is visible next to the stack's state transitions and the OS
// server's session migrations.
//
// The same trace can be exported for other tools:
//
//	psddump -pcap out.pcap     # frame stream, openable in Wireshark
//	psddump -trace out.json    # Chrome trace_event, chrome://tracing
//	psddump -stats             # append the final metrics-registry snapshot
//
// Usage: go run ./cmd/psddump [-seed 11] [-faultplan '@0 rates drop=0.02'] [-layers net,stack,core] [-stats]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/psd"
)

func main() {
	seed := flag.Int64("seed", 11, "simulation seed")
	faultPlan := flag.String("faultplan", "", "faults to inject, as a fault plan (DSL, see EXPERIMENTS.md), e.g. '@0 rates drop=0.02'")
	layers := flag.String("layers", "net,stack,core",
		"comma-separated trace layers (sim,net,filter,stack,core; net is needed for -pcap)")
	pcapPath := flag.String("pcap", "", "write the transmitted-frame stream to this pcap file")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON timeline to this file")
	stats := flag.Bool("stats", false, "append the final metrics-registry snapshot after the trace")
	flag.Parse()

	rec, err := run(os.Stdout, *seed, *faultPlan, *layers, *stats)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *pcapPath != "" {
		export(*pcapPath, rec.WritePcap)
	}
	if *tracePath != "" {
		export(*tracePath, rec.WriteChromeTrace)
	}
}

// export writes one trace rendering to path.
func export(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// run executes the canned scenario under the fault plan text with
// tracing enabled and writes the textual trace to w, followed by the
// final metrics-registry snapshot when stats is set. It is the whole
// program minus flag parsing and file output, so tests can run it
// against a golden file.
func run(w io.Writer, seed int64, faultPlan, layerSpec string, stats bool) (*psd.Recorder, error) {
	var layers []psd.TraceLayer
	for _, name := range strings.Split(layerSpec, ",") {
		l, err := trace.ParseLayer(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		layers = append(layers, l)
	}

	n := psd.NewConfig(psd.Config{Seed: seed, Trace: layers, Metrics: stats})
	if err := n.ApplyFaultPlan(faultPlan); err != nil {
		return nil, err
	}
	a := n.Host("alpha", "10.0.0.1", psd.Decomposed())
	b := n.Host("beta", "10.0.0.2", psd.Decomposed())

	total := scenario(n, a, b)
	if err := n.Run(); err != nil {
		return nil, err
	}

	rec := n.Trace()
	if err := rec.WriteText(w); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\n[%v] scenario complete: server received %d TCP bytes, %d events recorded\n",
		n.Now(), *total, rec.Len())
	if stats {
		fmt.Fprintf(w, "\nfinal registry snapshot:\n")
		if err := metrics.WriteText(w, *n.MetricsSnapshot()); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// scenario runs a UDP echo and then a small TCP transfer between the two
// hosts; the returned pointer holds the server's received byte count
// once the simulation has run.
func scenario(n *psd.Network, a, b *psd.Host) *int {
	total := new(int)

	srv := b.NewApp("demo-server")
	n.Spawn("demo-server", func(t *sim.Proc) {
		// UDP echo once.
		ufd, _ := srv.Socket(t, psd.SockDgram)
		check(srv.Bind(t, ufd, psd.SockAddr{Port: 7}))
		buf := make([]byte, 512)
		nr, from, err := srv.RecvFrom(t, ufd, buf, 0)
		check(err)
		srv.SendTo(t, ufd, buf[:nr], 0, from)
		srv.Close(t, ufd)

		// Then a small TCP transfer.
		ls, _ := srv.Socket(t, psd.SockStream)
		check(srv.Bind(t, ls, psd.SockAddr{Port: 80}))
		check(srv.Listen(t, ls, 1))
		fd, _, err := srv.Accept(t, ls)
		check(err)
		for {
			nr, err := srv.Recv(t, fd, buf, 0)
			check(err)
			if nr == 0 {
				break
			}
			*total += nr
		}
		srv.Close(t, fd)
		srv.Close(t, ls)
	})

	cli := a.NewApp("demo-client")
	n.Spawn("demo-client", func(t *sim.Proc) {
		t.Sleep(time.Millisecond)
		ufd, _ := cli.Socket(t, psd.SockDgram)
		_, err := cli.SendTo(t, ufd, []byte("ping"), 0, b.Addr(7))
		check(err)
		buf := make([]byte, 512)
		cli.RecvFrom(t, ufd, buf, 0)
		cli.Close(t, ufd)

		t.Sleep(5 * time.Millisecond)
		fd, _ := cli.Socket(t, psd.SockStream)
		check(cli.Connect(t, fd, b.Addr(80)))
		_, err = cli.Send(t, fd, make([]byte, 4000), 0)
		check(err)
		cli.Close(t, fd)
	})
	return total
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
