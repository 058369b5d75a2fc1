// Filetransfer: a bulk TCP transfer (an ftp-like workload, one of the
// applications the paper's introduction motivates) run back-to-back on
// all three protocol architectures, showing the paper's performance
// story: the decomposed library architecture is comparable to an
// in-kernel implementation and much faster than a server-based one.
//
// The transfer uses the chain interface end to end — SendChain on the
// sender, RecvPeek/RecvRelease on the receiver — so the copies/byte
// column shows the architectural contrast directly: the library stack
// runs in the application's address space and moves every byte by
// reference, while the in-kernel and server stacks sit behind a
// protection boundary and must copy.
//
// Run: go run ./examples/filetransfer [-mb 8]
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/psd"
)

func main() {
	mb := flag.Int("mb", 8, "transfer size in MB")
	flag.Parse()
	total := *mb << 20

	type result struct {
		name string
		kbps float64
	}
	var results []result
	for _, arch := range []struct {
		name string
		a    psd.Arch
	}{
		{"decomposed (library)", psd.Decomposed()},
		{"in-kernel", psd.InKernel()},
		{"server-based", psd.ServerBased()},
	} {
		kbps, copiesPerByte := transfer(arch.a, total)
		results = append(results, result{arch.name, kbps})
		fmt.Printf("%-22s %8.0f KB/s   %.1f copies/byte\n", arch.name, kbps, copiesPerByte)
	}
	fmt.Printf("\nlibrary/kernel ratio: %.2f   library/server ratio: %.2f\n",
		results[0].kbps/results[1].kbps, results[0].kbps/results[2].kbps)
}

// transfer moves total bytes over one TCP connection using the chain
// interface on both ends and returns throughput plus the socket-layer
// copy cost per payload byte across both hosts.
func transfer(arch psd.Arch, total int) (kbps, copiesPerByte float64) {
	n := psd.NewConfig(psd.Config{Seed: 42, Metrics: true})
	src := n.Host("src", "10.0.0.1", arch)
	dst := n.Host("dst", "10.0.0.2", arch)

	var start, end time.Duration

	receiver := dst.NewApp("recv")
	rch, ok := psd.ChainOps(receiver)
	if !ok {
		panic("filetransfer: architecture lacks the chain interface")
	}
	n.Spawn("recv", func(t *psd.Thread) {
		ls, err := receiver.Socket(t, psd.SockStream)
		check(err)
		check(receiver.SetSockOpt(t, ls, psd.SoRcvBuf, 64*1024))
		check(receiver.Bind(t, ls, psd.SockAddr{Port: 2021}))
		check(receiver.Listen(t, ls, 1))
		fd, _, err := receiver.Accept(t, ls)
		check(err)
		got := 0
		for got < total {
			// Peek an aliased view of the receive queue, then release it:
			// the receiver never asks for the bytes as flat memory.
			v, err := rch.RecvPeek(t, fd, 0, nil)
			check(err)
			nr := v.Chain.Len()
			v.Chain.Release()
			if nr == 0 {
				break
			}
			check(rch.RecvRelease(t, fd, nr))
			got += nr
		}
		end = t.Now().Duration()
		check(receiver.Close(t, fd))
		check(receiver.Close(t, ls))
	})

	sender := src.NewApp("send")
	sch, ok := psd.ChainOps(sender)
	if !ok {
		panic("filetransfer: architecture lacks the chain interface")
	}
	n.Spawn("send", func(t *psd.Thread) {
		t.Sleep(time.Millisecond)
		fd, err := sender.Socket(t, psd.SockStream)
		check(err)
		check(sender.SetSockOpt(t, fd, psd.SoSndBuf, 64*1024))
		check(sender.Connect(t, fd, dst.Addr(2021)))
		start = t.Now().Duration()
		chunk := make([]byte, 8192)
		for sent := 0; sent < total; {
			nw, err := sch.SendChain(t, fd, psd.ChainOf(chunk), 0)
			check(err)
			sent += nw
		}
		check(sender.Close(t, fd))
	})

	check(n.Run())
	copied := n.MetricsSnapshot().SumUnder("host.", ".sock_copied_bytes")
	return float64(total) / 1024 / (end - start).Seconds(), float64(copied) / float64(total)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
