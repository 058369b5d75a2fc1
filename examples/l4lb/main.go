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
//
// Run: go run ./examples/l4lb [-backends 2] [-conns 8] [-kb 32]
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/psd"
)

const (
	frontPort = 8080
	backPort  = 9000
)

func main() {
	backends := flag.Int("backends", 2, "number of backend hosts")
	conns := flag.Int("conns", 8, "client connections to balance")
	kb := flag.Int("kb", 32, "response size per connection in KB")
	flag.Parse()
	served, copied, spliced := run(*backends, *conns, *kb*1024)
	for b, n := range served {
		fmt.Printf("backend%d: served %d connections\n", b, n)
	}
	fmt.Printf("\nlb socket layer: %d bytes copied, %d bytes spliced\n", copied, spliced)
}

// reqBytes is the fixed request size; the response size is the
// workload's payload knob.
const reqBytes = 64

// run balances conns connections across the backends and returns the
// per-backend connection counts plus the balancer host's socket-layer
// accounting: payload bytes physically copied (the smoke test asserts
// zero) and bytes moved through the splice path.
func run(backends, conns, respBytes int) (served []int64, copied, spliced int64) {
	n := psd.NewConfig(psd.Config{Seed: 23, Metrics: true})
	lbHost := n.Host("lb", "10.0.0.1", psd.Decomposed())

	// Backends. Round-robin assignment is deterministic, so each backend
	// knows exactly how many connections it will serve and can exit its
	// accept loop cleanly.
	for b := 0; b < backends; b++ {
		b := b
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
				cfd := fd
				n.Spawn(fmt.Sprintf("backend%d-conn%d", b, c), func(ct *psd.Thread) {
					buf := make([]byte, reqBytes)
					for got := 0; got < reqBytes; {
						nr, err := app.Recv(ct, cfd, buf[got:], 0)
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
						nw, err := app.Send(ct, cfd, resp[sent:], 0)
						check(err)
						sent += nw
					}
					check(app.Close(ct, cfd))
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
	backendAddr := func(b int) psd.SockAddr {
		return psd.Addr(fmt.Sprintf("10.0.1.%d", 10+b), backPort)
	}
	n.Spawn("l4lb", func(t *psd.Thread) {
		ls, err := lb.Socket(t, psd.SockStream)
		check(err)
		check(lb.Bind(t, ls, psd.SockAddr{Port: frontPort}))
		check(lb.Listen(t, ls, 16))
		for c := 0; c < conns; c++ {
			cfd, _, err := lb.Accept(t, ls)
			check(err)
			pick := c % backends
			fd := cfd
			n.Spawn(fmt.Sprintf("l4lb-conn%d", c), func(ct *psd.Thread) {
				bfd, err := lb.Socket(ct, psd.SockStream)
				check(err)
				check(lb.Connect(ct, bfd, backendAddr(pick)))
				// Request up, response back; neither direction's payload
				// ever enters this address space.
				if _, err := ch.Splice(ct, bfd, fd, reqBytes); err != nil {
					panic(err)
				}
				if _, err := ch.Splice(ct, fd, bfd, respBytes); err != nil {
					panic(err)
				}
				check(lb.Close(ct, bfd))
				check(lb.Close(ct, fd))
			})
		}
		check(lb.Close(t, ls))
	})

	// One client host issuing connections back to back; it validates the
	// response pattern and tallies which backend served each connection.
	served = make([]int64, backends)
	clientHost := n.Host("client", "10.0.2.1", psd.Decomposed())
	cli := clientHost.NewApp("cli")
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
			if b < 0 || b >= backends {
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
	snap := n.MetricsSnapshot()
	return served, snap.SumUnder("host.lb.", ".sock_copied_bytes"),
		snap.SumUnder("host.lb.", ".splice_bytes")
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
