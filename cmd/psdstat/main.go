// Command psdstat is a netstat/ss-style monitor for the simulated
// network, driven by the deterministic metrics registry: it enables
// metrics, runs a small canned scenario on the selected architecture —
// a UDP service, a TCP listener with one established connection
// mid-transfer, and one already-closed connection parked in TIME_WAIT —
// pauses virtual time, and reads the live state back out of the
// registry and the per-stack socket tables.
//
//	psdstat                # per-socket table (netstat/ss)
//	psdstat -i             # per-interface counters (netstat -i)
//	psdstat -s             # per-protocol summary (netstat -s)
//	psdstat -json          # the full registry snapshot as JSON
//	psdstat -prom          # the same snapshot in Prometheus text format
//
// Every rendering is byte-stable for a given seed and architecture.
//
// Usage: go run ./cmd/psdstat [-seed 11] [-arch decomposed] [-i|-s|-json|-prom]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/psd"
)

func main() {
	seed := flag.Int64("seed", 11, "simulation seed")
	arch := flag.String("arch", "decomposed", "architecture: decomposed, inkernel, server, or offload")
	ifaces := flag.Bool("i", false, "show per-interface counters")
	summary := flag.Bool("s", false, "show per-protocol summaries")
	jsonOut := flag.Bool("json", false, "dump the full registry snapshot as JSON")
	promOut := flag.Bool("prom", false, "dump the full registry snapshot in Prometheus text format")
	flag.Parse()

	mode := "table"
	switch {
	case *ifaces:
		mode = "ifaces"
	case *summary:
		mode = "summary"
	case *jsonOut:
		mode = "json"
	case *promOut:
		mode = "prom"
	}
	if err := run(os.Stdout, *seed, *arch, mode); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the canned scenario with metrics enabled and writes the
// selected rendering to w. It is the whole program minus flag parsing,
// so tests can run it against golden files.
func run(w io.Writer, seed int64, archName, mode string) error {
	f, err := psd.FlavorByName(archName)
	if err != nil {
		return err
	}
	arch := f.New()
	n := psd.NewConfig(psd.Config{Seed: seed, Metrics: true})
	a := n.Host("alpha", "10.0.0.1", arch)
	b := n.Host("beta", "10.0.0.2", arch)
	g := n.Host("gamma", "10.0.0.3", arch)
	scenario(n, a, b, g)

	// Advance to a quiesce point mid-workload: the transfer connection is
	// established with data queued, the short-lived connection sits in
	// TIME_WAIT, and the listener and UDP service are still up.
	if err := n.RunFor(2 * time.Second); err != nil {
		return err
	}
	snap := n.MetricsSnapshot()

	switch mode {
	case "table":
		return writeSocketTable(w, n, []*psd.Host{a, b, g})
	case "ifaces":
		return writeIfaceTable(w, snap, []*psd.Host{a, b, g})
	case "summary":
		return writeSummary(w, snap, []*psd.Host{a, b, g})
	case "json":
		return metrics.WriteJSON(w, *snap)
	case "prom":
		return metrics.WriteProm(w, *snap)
	}
	return fmt.Errorf("psdstat: unknown mode %q", mode)
}

// scenario stands up the socket population psdstat reads: on beta a UDP
// service, a TCP listener, and one accepted connection with unread data
// queued; on alpha the transfer's client and one short-lived connection
// that has already closed (TIME_WAIT on the closing side); on gamma a
// data-plane VIP fronting a second service on beta, so the conntrack,
// NAT, and balancer counters tick.
func scenario(n *psd.Network, a, b, g *psd.Host) {
	srv := b.NewApp("stat-server")
	n.Spawn("stat-server", func(t *sim.Proc) {
		ufd, _ := srv.Socket(t, psd.SockDgram)
		check(srv.Bind(t, ufd, psd.SockAddr{Port: 7}))

		ls, _ := srv.Socket(t, psd.SockStream)
		check(srv.Bind(t, ls, psd.SockAddr{Port: 80}))
		check(srv.Listen(t, ls, 4))

		// First connection: drain to EOF and close. The client closed
		// first, so its side parks in TIME_WAIT.
		fd, _, err := srv.Accept(t, ls)
		check(err)
		buf := make([]byte, 1024)
		for {
			nr, err := srv.Recv(t, fd, buf, 0)
			check(err)
			if nr == 0 {
				break
			}
		}
		check(srv.Close(t, fd))

		// Second connection: accept and go idle, leaving the transfer's
		// bytes visible in the receive queue.
		_, _, err = srv.Accept(t, ls)
		check(err)
		t.Sleep(time.Hour)
	})

	// Chain-interface leg: a splice-echo service on beta. The server
	// never reads the bytes — it splices the connection into itself, so
	// the echo is pure reference motion and the splice counters tick.
	// The client peeks each reply chunk with a selective 16-byte range,
	// ticking the zero-copy-receive and selective-copy counters.
	const echoBytes = 512
	echo := b.NewApp("splice-echo")
	n.Spawn("splice-echo", func(t *sim.Proc) {
		ls, _ := echo.Socket(t, psd.SockStream)
		check(echo.Bind(t, ls, psd.SockAddr{Port: 81}))
		check(echo.Listen(t, ls, 4))
		fd, _, err := echo.Accept(t, ls)
		check(err)
		ch, ok := psd.ChainOps(echo)
		if !ok {
			panic("psdstat: architecture lacks the chain interface")
		}
		if _, err := ch.Splice(t, fd, fd, echoBytes); err != nil {
			panic(err)
		}
		check(echo.Close(t, fd))
		check(echo.Close(t, ls))
	})
	chainCli := a.NewApp("chain-client")
	n.Spawn("chain-client", func(t *sim.Proc) {
		t.Sleep(2 * time.Millisecond)
		fd, _ := chainCli.Socket(t, psd.SockStream)
		check(chainCli.Connect(t, fd, b.Addr(81)))
		ch, ok := psd.ChainOps(chainCli)
		if !ok {
			panic("psdstat: architecture lacks the chain interface")
		}
		if _, err := ch.SendChain(t, fd, psd.ChainCopy(make([]byte, echoBytes)), 0); err != nil {
			panic(err)
		}
		for got := 0; got < echoBytes; {
			v, err := ch.RecvPeek(t, fd, 0, []psd.Range{{Off: 0, Len: 16}})
			check(err)
			nr := v.Chain.Len()
			check(ch.RecvRelease(t, fd, nr))
			v.Chain.Release()
			got += nr
		}
		check(chainCli.Close(t, fd))
	})

	// Data-plane leg: gamma fronts a VIP for a service on beta. The
	// plane proxy-ARPs the VIP address, conntracks the connection, and
	// full-NATs every segment through to beta, so the dataplane summary
	// counters and the ct/lb gauges have live values at the quiesce
	// point. The connection stays established (both ends sleep).
	const vipBytes = 256
	vsrv := b.NewApp("vip-server")
	n.Spawn("vip-server", func(t *sim.Proc) {
		ls, _ := vsrv.Socket(t, psd.SockStream)
		check(vsrv.Bind(t, ls, psd.SockAddr{Port: 82}))
		check(vsrv.Listen(t, ls, 1))
		fd, _, err := vsrv.Accept(t, ls)
		check(err)
		buf := make([]byte, vipBytes)
		for got := 0; got < vipBytes; {
			nr, err := vsrv.Recv(t, fd, buf, 0)
			check(err)
			got += nr
		}
		t.Sleep(time.Hour)
	})
	if _, err := g.InstallVIP("10.0.0.200", 82, psd.BackendSpec{Host: b, Port: 82}); err != nil {
		panic(err)
	}
	vcli := a.NewApp("vip-client")
	n.Spawn("vip-client", func(t *sim.Proc) {
		t.Sleep(3 * time.Millisecond)
		fd, _ := vcli.Socket(t, psd.SockStream)
		check(vcli.Connect(t, fd, psd.Addr("10.0.0.200", 82)))
		_, err := vcli.Send(t, fd, make([]byte, vipBytes), 0)
		check(err)
		t.Sleep(time.Hour)
	})

	cli := a.NewApp("stat-client")
	n.Spawn("stat-client", func(t *sim.Proc) {
		t.Sleep(time.Millisecond)

		// Short-lived connection: client closes first -> TIME_WAIT.
		fd, _ := cli.Socket(t, psd.SockStream)
		check(cli.Connect(t, fd, b.Addr(80)))
		_, err := cli.Send(t, fd, []byte("hello"), 0)
		check(err)
		check(cli.Close(t, fd))

		// Mid-transfer connection: stays established with data queued at
		// the idle server.
		fd2, _ := cli.Socket(t, psd.SockStream)
		check(cli.Connect(t, fd2, b.Addr(80)))
		_, err = cli.Send(t, fd2, make([]byte, 2048), 0)
		check(err)
		t.Sleep(time.Hour)
	})
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// writeSocketTable renders the netstat/ss view: one sorted row per live
// socket, per host.
func writeSocketTable(w io.Writer, n *psd.Network, hosts []*psd.Host) error {
	fmt.Fprintf(w, "psdstat at %v\n", n.Now())
	for _, h := range hosts {
		fmt.Fprintf(w, "\nHost %s:\n", h.Name())
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "Proto\tRecv-Q\tSend-Q\tLocal Address\tForeign Address\tState\tSpliced\tZC-Rx\tSelCopy\tStack")
		for _, row := range h.Netstat() {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%s:%d\t%s:%d\t%s\t%d\t%d\t%d\t%s\n",
				row.Proto, row.RecvQ, row.SendQ,
				row.Local.IP, row.Local.Port,
				row.Remote.IP, row.Remote.Port,
				row.State, row.SplicedBytes, row.ZeroCopyRx, row.SelectiveCopy,
				row.Stack)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// writeIfaceTable renders the netstat -i view from the registry.
func writeIfaceTable(w io.Writer, snap *psd.MetricsSnapshot, hosts []*psd.Host) error {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "Iface\tTX-Frames\tTX-Bytes\tRX-Frames\tRX-Bytes\tEndpoints")
	get := func(name string) int64 {
		it, _ := snap.Get(name)
		return it.Value
	}
	for _, h := range hosts {
		p := "host." + h.Name() + "."
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\n", h.Name(),
			get(p+"nic.tx_frames"), get(p+"nic.tx_bytes"),
			get(p+"nic.rx_frames"), get(p+"nic.rx_bytes"),
			get(p+"kern.endpoints"))
	}
	return tw.Flush()
}

// writeSummary renders the netstat -s view: per-protocol counters summed
// across every stack in the network, plus the wire's own accounting.
func writeSummary(w io.Writer, snap *psd.MetricsSnapshot, hosts []*psd.Host) error {
	sum := snap.Sum
	fmt.Fprintf(w, "ip:\n")
	fmt.Fprintf(w, "    %d packets received\n", sum(".ip_in"))
	fmt.Fprintf(w, "    %d packets sent\n", sum(".ip_out"))
	fmt.Fprintf(w, "    %d fragments created\n", sum(".ip_frags_out"))
	fmt.Fprintf(w, "    %d datagrams reassembled\n", sum(".ip_reasm_ok"))
	fmt.Fprintf(w, "    %d bad header checksums\n", sum(".checksum_errors_ip"))
	fmt.Fprintf(w, "tcp:\n")
	fmt.Fprintf(w, "    %d segments received\n", sum(".tcp_in"))
	fmt.Fprintf(w, "    %d segments sent\n", sum(".tcp_out"))
	fmt.Fprintf(w, "    %d segments retransmitted\n", sum(".tcp_rexmit")+sum(".tcp_fast_rexmit"))
	fmt.Fprintf(w, "    %d duplicate acks received\n", sum(".tcp_dup_acks"))
	fmt.Fprintf(w, "    %d bad segment checksums\n", sum(".checksum_errors_tcp"))
	fmt.Fprintf(w, "udp:\n")
	fmt.Fprintf(w, "    %d datagrams received\n", sum(".udp_in"))
	fmt.Fprintf(w, "    %d datagrams sent\n", sum(".udp_out"))
	fmt.Fprintf(w, "    %d datagrams to unknown ports\n", sum(".udp_no_port"))
	fmt.Fprintf(w, "    %d bad datagram checksums\n", sum(".checksum_errors_udp"))
	fmt.Fprintf(w, "wire:\n")
	fmt.Fprintf(w, "    %d frames delivered\n", sum("net.frames_sent"))
	fmt.Fprintf(w, "    %d frames dropped\n", sum(".drops_loss")+sum(".drops_down")+sum(".partition_drops"))
	fmt.Fprintf(w, "sockets:\n")
	fmt.Fprintf(w, "    %d bytes copied at the socket layer\n", sum(".sock_copied_bytes"))
	fmt.Fprintf(w, "    %d bytes moved by reference\n", sum(".sock_aliased_bytes"))
	fmt.Fprintf(w, "    %d splice operations moving %d bytes\n", sum(".splice_ops"), sum(".splice_bytes"))
	fmt.Fprintf(w, "    %d bytes received zero-copy\n", sum(".zc_rx_bytes"))
	fmt.Fprintf(w, "    %d bytes selectively materialized\n", sum(".selective_copy_bytes"))
	fmt.Fprintf(w, "dataplane:\n")
	fmt.Fprintf(w, "    %d frames inspected\n", sum(".dataplane.rx_frames"))
	fmt.Fprintf(w, "    %d frames rewritten\n", sum(".dataplane.rewrites"))
	fmt.Fprintf(w, "    %d hairpin forwards\n", sum(".dataplane.hairpins"))
	fmt.Fprintf(w, "    %d frames dropped by policy\n", sum(".dataplane.drops"))
	fmt.Fprintf(w, "    %d proxy-ARP replies\n", sum(".dataplane.arp_replies"))
	fmt.Fprintf(w, "    %d conntrack flows created (%d live)\n", sum(".dataplane.ct.created"), sum(".dataplane.ct.flows"))
	fmt.Fprintf(w, "    %d conntrack flows expired\n", sum(".dataplane.ct.expired"))
	fmt.Fprintf(w, "    %d balancer connections admitted\n", sum(".dataplane.lb.conns"))
	fmt.Fprintf(w, "    %d balancer connections re-homed, %d reset\n", sum(".dataplane.lb.rehomed"), sum(".dataplane.lb.resets"))
	fmt.Fprintf(w, "core:\n")
	fmt.Fprintf(w, "    %d sessions created\n", sum(".core.sessions_made"))
	fmt.Fprintf(w, "    %d sessions migrated to applications\n", sum(".core.migrations"))
	fmt.Fprintf(w, "    %d connections established\n", sum(".core.conn_setup"))
	fmt.Fprintf(w, "    %d orphaned sessions aborted\n", sum(".core.orphans_aborted"))
	return nil
}
