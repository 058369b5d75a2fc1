// Fileserver: a concurrent TCP file server on the decomposed
// architecture, serving several client hosts at once over the shared
// 10 Mb/s Ethernet.
//
// Each accepted connection is handled by its own thread in the server
// process — each with its own migrated session, so every transfer's send
// path runs in the server *application's* address space with no
// operating-system involvement. The file lives in one buffer and every
// connection serves it with SendChain over aliasing chains, so the
// server never copies a payload byte: the protocol transmits straight
// out of the file cache, and the socket-layer copy counter proves it.
//
// Run: go run ./examples/fileserver [-clients 3] [-kb 512]
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/psd"
)

const filePort = 2049

func main() {
	clients := flag.Int("clients", 3, "number of client hosts")
	kb := flag.Int("kb", 512, "file size per client in KB")
	flag.Parse()
	copied, aliased := run(*clients, *kb*1024)
	fmt.Printf("\nfsd socket layer: %d bytes copied, %d bytes sent by reference\n", copied, aliased)
}

// run serves the file to every client and returns the server host's
// socket-layer copy accounting: bytes physically copied vs bytes moved
// by reference. The smoke test asserts copied == 0.
func run(clients, size int) (copied, aliased int64) {
	n := psd.NewConfig(psd.Config{Seed: 17, Metrics: true})
	serverHost := n.Host("fileserver", "10.0.0.1", psd.Decomposed())

	// The served file: one buffer, shared by every connection. Chains
	// built with ChainOf alias it — nothing below ever copies it, and
	// copy-on-write would isolate the file even if a client scribbled.
	file := make([]byte, size)
	for i := range file {
		file[i] = byte(i)
	}

	srv := serverHost.NewApp("fsd")
	ch, ok := psd.ChainOps(srv)
	if !ok {
		panic("fileserver: architecture lacks the chain interface")
	}
	n.Spawn("fsd", func(t *psd.Thread) {
		ls, err := srv.Socket(t, psd.SockStream)
		check(err)
		check(srv.SetSockOpt(t, ls, psd.SoSndBuf, 64*1024))
		check(srv.Bind(t, ls, psd.SockAddr{Port: filePort}))
		check(srv.Listen(t, ls, 8))
		for i := 0; i < clients; i++ {
			fd, peer, err := srv.Accept(t, ls)
			check(err)
			// One thread per connection; its session already migrated
			// into this address space at accept.
			connFD := fd
			n.Spawn(fmt.Sprintf("fsd-conn%d", i), func(ct *psd.Thread) {
				for sent := 0; sent < size; {
					m := 8192
					if sent+m > size {
						m = size - sent
					}
					// Send straight out of the file buffer, by reference.
					nw, err := ch.SendChain(ct, connFD, psd.ChainOf(file[sent:sent+m]), 0)
					check(err)
					sent += nw
				}
				check(srv.Close(ct, connFD))
				fmt.Printf("fsd: served %d KB to %v\n", size/1024, peer.Addr)
			})
		}
		check(srv.Close(t, ls))
	})

	for i := 0; i < clients; i++ {
		i := i
		host := n.Host(fmt.Sprintf("client%d", i), fmt.Sprintf("10.0.0.%d", 10+i), psd.Decomposed())
		app := host.NewApp("fetch")
		n.Spawn(fmt.Sprintf("fetch%d", i), func(t *psd.Thread) {
			t.Sleep(time.Duration(i+1) * time.Millisecond)
			fd, err := app.Socket(t, psd.SockStream)
			check(err)
			check(app.SetSockOpt(t, fd, psd.SoRcvBuf, 64*1024))
			check(app.Connect(t, fd, serverHost.Addr(filePort)))
			start := t.Now()
			got := 0
			buf := make([]byte, 8192)
			for {
				nr, err := app.Recv(t, fd, buf, 0)
				check(err)
				if nr == 0 {
					break
				}
				got += nr
			}
			elapsed := t.Now().Sub(start)
			fmt.Printf("client%d: %d KB in %v (%.0f KB/s)\n",
				i, got/1024, elapsed.Round(time.Millisecond),
				float64(got)/1024/elapsed.Seconds())
			check(app.Close(t, fd))
		})
	}

	check(n.Run())
	fmt.Printf("\naggregate virtual time: %v\n", n.Now())
	snap := n.MetricsSnapshot()
	return snap.SumUnder("host.fileserver.", ".sock_copied_bytes"),
		snap.SumUnder("host.fileserver.", ".sock_aliased_bytes")
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
