package psd_test

import (
	"fmt"
	"time"

	"repro/psd"
)

// check stops an example at the first socket error: none is expected.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Quickstart: a UDP echo client and server on the decomposed protocol
// architecture.
//
// Two hosts are attached to a simulated 10 Mb/s Ethernet. The server
// binds UDP port 7 — at which instant the OS server migrates the (null)
// session into the application's protocol library, per Table 1 of the
// paper — and echoes datagrams. The client measures round trips. All the
// send/receive work happens in the applications' address spaces; the OS
// servers are only involved in naming and setup.
func Example_quickstart() {
	n := psd.New(1)
	server := n.Host("server", "10.0.0.1", psd.Decomposed())
	client := n.Host("client", "10.0.0.2", psd.Decomposed())

	srv := server.NewApp("echod")
	n.Spawn("echod", func(t *psd.Thread) {
		fd, err := srv.Socket(t, psd.SockDgram)
		check(err)
		check(srv.Bind(t, fd, psd.SockAddr{Port: 7}))
		buf := make([]byte, 2048)
		for {
			nr, from, err := srv.RecvFrom(t, fd, buf, 0)
			check(err)
			if string(buf[:nr]) == "quit" {
				return
			}
			_, err = srv.SendTo(t, fd, buf[:nr], 0, from)
			check(err)
		}
	})

	cli := client.NewApp("pinger")
	n.Spawn("pinger", func(t *psd.Thread) {
		t.Sleep(time.Millisecond) // let the server bind
		fd, err := cli.Socket(t, psd.SockDgram)
		check(err)
		dst := server.Addr(7)
		buf := make([]byte, 2048)
		for i := 0; i < 5; i++ {
			msg := fmt.Sprintf("ping %d", i)
			start := t.Now()
			_, err := cli.SendTo(t, fd, []byte(msg), 0, dst)
			check(err)
			nr, _, err := cli.RecvFrom(t, fd, buf, 0)
			check(err)
			fmt.Printf("%-8s -> %-8s rtt %v\n", msg, buf[:nr], t.Now().Sub(start))
		}
		_, err = cli.SendTo(t, fd, []byte("quit"), 0, dst)
		check(err)
		check(cli.Close(t, fd))
	})

	check(n.Run())
	sessions, migrations, returns, _ := server.ServerStats()
	fmt.Printf("\nserver-host OS server: %d live sessions, %d migrations, %d returns\n",
		sessions, migrations, returns)
	fmt.Printf("virtual time elapsed: %v\n", n.Now())
	// Output:
	// ping 0   -> ping 0   rtt 3.07797ms
	// ping 1   -> ping 1   rtt 1.237416ms
	// ping 2   -> ping 2   rtt 1.237416ms
	// ping 3   -> ping 3   rtt 1.237416ms
	// ping 4   -> ping 4   rtt 1.237416ms
	//
	// server-host OS server: 1 live sessions, 1 migrations, 0 returns
	// virtual time elapsed: 10.09656ms
}

// Chat: a select-driven TCP chat room, exercising the cooperative
// select machinery of the decomposed architecture (paper §3.2).
//
// The chat server multiplexes a listening socket and all client
// connections through select. In the decomposed architecture the
// listener is managed by the OS server while the accepted connections
// live in the application's protocol library — exactly the mixed case
// the paper's cooperative interface exists for: the library checks its
// own sockets, asks the server about the listener via proxy_status, and
// blocks until either side reports a change.
func Example_chat() {
	const port = 6667
	n := psd.New(7)
	hub := n.Host("hub", "10.0.0.1", psd.Decomposed())

	chatd := hub.NewApp("chatd")
	n.Spawn("chatd", func(t *psd.Thread) {
		ls, err := chatd.Socket(t, psd.SockStream)
		check(err)
		check(chatd.Bind(t, ls, psd.SockAddr{Port: port}))
		check(chatd.Listen(t, ls, 8))

		conns := map[int]string{} // fd -> display name
		buf := make([]byte, 1024)
		nextID := 0
		for {
			read := psd.NewFDSet(ls)
			for fd := range conns {
				read[fd] = true
			}
			ready, _, err := chatd.Select(t, read, nil, 5*time.Second)
			check(err)
			if len(ready) == 0 {
				fmt.Println("chatd: idle, shutting down")
				for fd := range conns {
					chatd.Close(t, fd)
				}
				chatd.Close(t, ls)
				return
			}
			for fd := range ready {
				if fd == ls {
					cfd, peer, err := chatd.Accept(t, ls)
					check(err)
					nextID++
					conns[cfd] = fmt.Sprintf("user%d@%v", nextID, peer.Addr)
					fmt.Printf("chatd: %s joined\n", conns[cfd])
					continue
				}
				nr, err := chatd.Recv(t, fd, buf, 0)
				if err != nil || nr == 0 {
					fmt.Printf("chatd: %s left\n", conns[fd])
					chatd.Close(t, fd)
					delete(conns, fd)
					continue
				}
				line := fmt.Sprintf("[%s] %s", conns[fd], buf[:nr])
				fmt.Printf("chatd: broadcast %q\n", line)
				for other := range conns {
					if other != fd {
						chatd.Send(t, other, []byte(line), 0)
					}
				}
			}
		}
	})

	for _, u := range []struct {
		name, box, ip string
		lines         []string
	}{
		{"alice", "alice-box", "10.0.0.2", []string{"hello room", "anyone here?"}},
		{"bob", "bob-box", "10.0.0.3", []string{"hi alice"}},
	} {
		app := n.Host(u.box, u.ip, psd.Decomposed()).NewApp(u.name)
		n.Spawn(u.name, func(t *psd.Thread) {
			t.Sleep(10 * time.Millisecond)
			fd, err := app.Socket(t, psd.SockStream)
			check(err)
			check(app.Connect(t, fd, hub.Addr(port)))
			buf := make([]byte, 1024)
			for _, line := range u.lines {
				t.Sleep(50 * time.Millisecond)
				_, err := app.Send(t, fd, []byte(line), 0)
				check(err)
				// Poll for any broadcasts without blocking forever.
				for {
					r, _, err := app.Select(t, psd.NewFDSet(fd), nil, 20*time.Millisecond)
					check(err)
					if len(r) == 0 {
						break
					}
					nr, err := app.Recv(t, fd, buf, 0)
					if err != nil || nr == 0 {
						return
					}
					fmt.Printf("%s sees: %s\n", u.name, buf[:nr])
				}
			}
			t.Sleep(200 * time.Millisecond)
			check(app.Close(t, fd))
		})
	}

	check(n.Run())
	fmt.Printf("\nvirtual time elapsed: %v\n", n.Now())
	// Output:
	// chatd: user1@10.0.0.2 joined
	// chatd: user2@10.0.0.3 joined
	// chatd: broadcast "[user1@10.0.0.2] hello room"
	// bob sees: [user1@10.0.0.2] hello room
	// chatd: broadcast "[user2@10.0.0.3] hi alice"
	// alice sees: [user2@10.0.0.3] hi alice
	// chatd: broadcast "[user1@10.0.0.2] anyone here?"
	// chatd: user2@10.0.0.3 left
	// chatd: user1@10.0.0.2 left
	// chatd: idle, shutting down
	//
	// virtual time elapsed: 5.36205361s
}

// Migration: makes the paper's session-migration machinery visible.
//
// The example walks one TCP session through its whole life in the
// decomposed architecture, printing the OS server's counters at each
// step:
//
//  1. socket/connect — the OS server runs the handshake, then the
//     established session migrates into the client's protocol library;
//  2. data transfer — no operating-system involvement;
//  3. fork — the session is returned to the OS server first (two address
//     spaces must never co-manage protocol state), and both processes
//     then reach it through the server;
//  4. close — the server runs the FIN handshake and the 2MSL wait, and
//     finally releases the port.
func Example_migration() {
	n := psd.New(3)
	a := n.Host("appbox", "10.0.0.1", psd.Decomposed())
	b := n.Host("peer", "10.0.0.2", psd.Decomposed())

	show := func(step string) {
		s, m, r, _ := a.ServerStats()
		fmt.Printf("%-34s sessions=%d migrations=%d returns=%d\n", step, s, m, r)
	}

	peer := b.NewApp("sink")
	n.Spawn("sink", func(t *psd.Thread) {
		ls, err := peer.Socket(t, psd.SockStream)
		check(err)
		check(peer.Bind(t, ls, psd.SockAddr{Port: 9000}))
		check(peer.Listen(t, ls, 1))
		fd, _, err := peer.Accept(t, ls)
		check(err)
		buf := make([]byte, 4096)
		for {
			nr, err := peer.Recv(t, fd, buf, 0)
			check(err)
			if nr == 0 {
				break
			}
		}
		check(peer.Close(t, fd))
		check(peer.Close(t, ls))
	})

	app := a.NewApp("worker")
	n.Spawn("worker", func(t *psd.Thread) {
		t.Sleep(time.Millisecond)
		show("start")

		fd, err := app.Socket(t, psd.SockStream)
		check(err)
		show("after socket (server-managed)")

		check(app.Connect(t, fd, b.Addr(9000)))
		show("after connect (migrated to app)")

		_, err = app.Send(t, fd, make([]byte, 32*1024), 0)
		check(err)
		show("after 32 KB sent (no OS on path)")

		child, err := app.Fork(t, "worker-child")
		check(err)
		show("after fork (returned to server)")

		// Both processes can still use the shared session, through the
		// server.
		_, err = app.Send(t, fd, []byte("from parent"), 0)
		check(err)
		_, err = child.Send(t, fd, []byte("from child"), 0)
		check(err)
		show("after post-fork sends")

		check(child.Close(t, fd))
		check(app.Close(t, fd))
		show("after close (server runs FIN)")
		child.ExitProcess(t)
	})

	check(n.Run())
	// Drain TIME_WAIT: 2MSL is 60 virtual seconds.
	check(n.RunFor(90 * time.Second))
	s, _, _, _ := a.ServerStats()
	fmt.Printf("%-34s sessions=%d\n", "after 2MSL drain", s)
	fmt.Printf("\nvirtual time elapsed: %v\n", n.Now())
	// Output:
	// start                              sessions=0 migrations=0 returns=0
	// after socket (server-managed)      sessions=1 migrations=0 returns=0
	// after connect (migrated to app)    sessions=1 migrations=1 returns=0
	// after 32 KB sent (no OS on path)   sessions=1 migrations=1 returns=0
	// after fork (returned to server)    sessions=1 migrations=1 returns=1
	// after post-fork sends              sessions=1 migrations=1 returns=1
	// after close (server runs FIN)      sessions=1 migrations=1 returns=1
	// after 2MSL drain                   sessions=0
	//
	// virtual time elapsed: 1m30.242276577s
}

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
func Example_fileserver() {
	const port, clients, size = 2049, 2, 64 * 1024
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
		check(srv.Bind(t, ls, psd.SockAddr{Port: port}))
		check(srv.Listen(t, ls, 8))
		for i := 0; i < clients; i++ {
			fd, peer, err := srv.Accept(t, ls)
			check(err)
			// One thread per connection; its session already migrated
			// into this address space at accept.
			n.Spawn(fmt.Sprintf("fsd-conn%d", i), func(ct *psd.Thread) {
				for sent := 0; sent < size; {
					m := min(8192, size-sent)
					// Send straight out of the file buffer, by reference.
					nw, err := ch.SendChain(ct, fd, psd.ChainOf(file[sent:sent+m]), 0)
					check(err)
					sent += nw
				}
				check(srv.Close(ct, fd))
				fmt.Printf("fsd: served %d KB to %v\n", size/1024, peer.Addr)
			})
		}
		check(srv.Close(t, ls))
	})

	for i := 0; i < clients; i++ {
		host := n.Host(fmt.Sprintf("client%d", i), fmt.Sprintf("10.0.0.%d", 10+i), psd.Decomposed())
		app := host.NewApp("fetch")
		n.Spawn(fmt.Sprintf("fetch%d", i), func(t *psd.Thread) {
			t.Sleep(time.Duration(i+1) * time.Millisecond)
			fd, err := app.Socket(t, psd.SockStream)
			check(err)
			check(app.SetSockOpt(t, fd, psd.SoRcvBuf, 64*1024))
			check(app.Connect(t, fd, serverHost.Addr(port)))
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
	fmt.Printf("fsd socket layer: %d bytes copied, %d bytes sent by reference\n",
		snap.SumUnder("host.fileserver.", ".sock_copied_bytes"),
		snap.SumUnder("host.fileserver.", ".sock_aliased_bytes"))
	// Output:
	// fsd: served 64 KB to 10.0.0.10
	// fsd: served 64 KB to 10.0.0.11
	// client0: 64 KB in 294ms (218 KB/s)
	// client1: 64 KB in 310ms (207 KB/s)
	//
	// aggregate virtual time: 317.662779ms
	// fsd socket layer: 0 bytes copied, 131072 bytes sent by reference
}

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
func Example_filetransfer() {
	const port, total = 2021, 1 << 20
	var kbps []float64
	for _, arch := range []struct {
		name string
		a    psd.Arch
	}{
		{"decomposed (library)", psd.Decomposed()},
		{"in-kernel", psd.InKernel()},
		{"server-based", psd.ServerBased()},
	} {
		n := psd.NewConfig(psd.Config{Seed: 42, Metrics: true})
		src := n.Host("src", "10.0.0.1", arch.a)
		dst := n.Host("dst", "10.0.0.2", arch.a)
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
			check(receiver.Bind(t, ls, psd.SockAddr{Port: port}))
			check(receiver.Listen(t, ls, 1))
			fd, _, err := receiver.Accept(t, ls)
			check(err)
			for got := 0; got < total; {
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
			check(sender.Connect(t, fd, dst.Addr(port)))
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
		kbps = append(kbps, total/1024/(end-start).Seconds())
		fmt.Printf("%-22s %8.0f KB/s   %.1f copies/byte\n",
			arch.name, kbps[len(kbps)-1], float64(copied)/total)
	}
	fmt.Printf("\nlibrary/kernel ratio: %.2f   library/server ratio: %.2f\n",
		kbps[0]/kbps[1], kbps[0]/kbps[2])
	// Output:
	// decomposed (library)        936 KB/s   0.0 copies/byte
	// in-kernel                   895 KB/s   2.0 copies/byte
	// server-based                553 KB/s   2.0 copies/byte
	//
	// library/kernel ratio: 1.05   library/server ratio: 1.69
}

// L4lb: a user-level layer-4 load balancer on the decomposed
// architecture, built on the cross-socket splice path.
//
// The balancer accepts client connections on a front port and forwards
// each one to a backend picked round-robin. Both directions of every
// connection move through Splice: the sessions are returned to the
// operating-system server and the payload flows server-side by
// reference, so the balancer process never maps — let alone copies — a
// forwarded byte. The socket-layer copy counter proves it.
//
// This is the application-level companion to the in-kernel VIP data
// plane (internal/dataplane): same job, done one layer up, with the
// proxied-copies contrast the paper's decomposition argument predicts.
func Example_l4lb() {
	const (
		frontPort, backPort = 8080, 9000
		backends, conns     = 2, 6
		reqBytes, respBytes = 64, 16 * 1024
	)
	n := psd.NewConfig(psd.Config{Seed: 23, Metrics: true})
	lbHost := n.Host("lb", "10.0.0.1", psd.Decomposed())

	// Backends. Round-robin assignment is deterministic, so each backend
	// knows exactly how many connections it will serve and can exit its
	// accept loop cleanly.
	for b := 0; b < backends; b++ {
		expect := conns / backends
		if b < conns%backends {
			expect++
		}
		host := n.Host(fmt.Sprintf("backend%d", b), fmt.Sprintf("10.0.1.%d", 10+b), psd.Decomposed())
		app := host.NewApp("srv")
		n.Spawn(fmt.Sprintf("backend%d", b), func(t *psd.Thread) {
			ls, err := app.Socket(t, psd.SockStream)
			check(err)
			check(app.Bind(t, ls, psd.SockAddr{Port: backPort}))
			check(app.Listen(t, ls, 8))
			for c := 0; c < expect; c++ {
				fd, _, err := app.Accept(t, ls)
				check(err)
				n.Spawn(fmt.Sprintf("backend%d-conn%d", b, c), func(ct *psd.Thread) {
					buf := make([]byte, reqBytes)
					for got := 0; got < reqBytes; {
						nr, err := app.Recv(ct, fd, buf[got:], 0)
						check(err)
						if nr == 0 {
							panic("backend: request truncated")
						}
						got += nr
					}
					// The response carries the backend's identity in every
					// byte, so the client can verify both payload integrity
					// and which backend the balancer picked.
					resp := make([]byte, respBytes)
					for i := range resp {
						resp[i] = byte(b + i)
					}
					for sent := 0; sent < respBytes; {
						nw, err := app.Send(ct, fd, resp[sent:], 0)
						check(err)
						sent += nw
					}
					check(app.Close(ct, fd))
				})
			}
			check(app.Close(t, ls))
		})
	}

	// The balancer: accept, pick round-robin, splice both directions.
	lb := lbHost.NewApp("l4lb")
	ch, ok := psd.ChainOps(lb)
	if !ok {
		panic("l4lb: architecture lacks the chain interface")
	}
	n.Spawn("l4lb", func(t *psd.Thread) {
		ls, err := lb.Socket(t, psd.SockStream)
		check(err)
		check(lb.Bind(t, ls, psd.SockAddr{Port: frontPort}))
		check(lb.Listen(t, ls, 16))
		for c := 0; c < conns; c++ {
			fd, _, err := lb.Accept(t, ls)
			check(err)
			backend := psd.Addr(fmt.Sprintf("10.0.1.%d", 10+c%backends), backPort)
			n.Spawn(fmt.Sprintf("l4lb-conn%d", c), func(ct *psd.Thread) {
				bfd, err := lb.Socket(ct, psd.SockStream)
				check(err)
				check(lb.Connect(ct, bfd, backend))
				// Request up, response back; neither direction's payload
				// ever enters this address space.
				_, err = ch.Splice(ct, bfd, fd, reqBytes)
				check(err)
				_, err = ch.Splice(ct, fd, bfd, respBytes)
				check(err)
				check(lb.Close(ct, bfd))
				check(lb.Close(ct, fd))
			})
		}
		check(lb.Close(t, ls))
	})

	// One client host issuing connections back to back; it validates the
	// response pattern and tallies which backend served each connection.
	served := make([]int, backends)
	cli := n.Host("client", "10.0.2.1", psd.Decomposed()).NewApp("cli")
	n.Spawn("client", func(t *psd.Thread) {
		t.Sleep(time.Millisecond)
		req := make([]byte, reqBytes)
		for i := range req {
			req[i] = byte(i)
		}
		for c := 0; c < conns; c++ {
			fd, err := cli.Socket(t, psd.SockStream)
			check(err)
			check(cli.Connect(t, fd, lbHost.Addr(frontPort)))
			for sent := 0; sent < reqBytes; {
				nw, err := cli.Send(t, fd, req[sent:], 0)
				check(err)
				sent += nw
			}
			resp := make([]byte, 0, respBytes)
			buf := make([]byte, 8192)
			for len(resp) < respBytes {
				nr, err := cli.Recv(t, fd, buf, 0)
				check(err)
				if nr == 0 {
					panic(fmt.Sprintf("client: response truncated at %d bytes", len(resp)))
				}
				resp = append(resp, buf[:nr]...)
			}
			b := int(resp[0])
			if b >= backends {
				panic(fmt.Sprintf("client: response names backend %d of %d", b, backends))
			}
			for i, v := range resp {
				if v != byte(b+i) {
					panic(fmt.Sprintf("client: conn %d byte %d corrupted through the balancer", c, i))
				}
			}
			served[b]++
			check(cli.Close(t, fd))
		}
	})

	check(n.Run())
	fmt.Printf("aggregate virtual time: %v\n", n.Now())
	for b, k := range served {
		fmt.Printf("backend%d: served %d connections\n", b, k)
	}
	// The stack counts each spliced byte once, both directions included.
	snap := n.MetricsSnapshot()
	fmt.Printf("\nlb socket layer: %d bytes copied, %d bytes spliced\n",
		snap.SumUnder("host.lb.", ".sock_copied_bytes"),
		snap.SumUnder("host.lb.", ".splice_bytes"))
	// Output:
	// aggregate virtual time: 1.242824842s
	// backend0: served 3 connections
	// backend1: served 3 connections
	//
	// lb socket layer: 0 bytes copied, 98688 bytes spliced
}
