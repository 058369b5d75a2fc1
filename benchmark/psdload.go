package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"repro/internal/filter"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/psd"
)

// The multi-host workloads (manyflows, vipchain, city) are built on the
// psd facade, like the repo's scenario and churn suites.

func psdArch(col string) psd.Arch {
	switch col {
	case colCore:
		return psd.Decomposed()
	case colInkernel:
		return psd.InKernel()
	}
	panic("benchmark: no psd architecture for column " + col)
}

// psdRun is one psd network plus the observation state of a traced rep.
type psdRun struct {
	n  *psd.Network
	tr *tracing
}

func newPsdRun(simSeed int64, tr *tracing) *psdRun {
	cfg := psd.Config{Seed: simSeed}
	if tr != nil {
		cfg.Metrics = true
		cfg.Trace = tracedLayers
	}
	return &psdRun{n: psd.NewConfig(cfg), tr: tr}
}

// app creates an application on h, decorated with socket-call spans in
// a traced rep.
func (r *psdRun) app(h *psd.Host, name string) psd.App {
	return traceAPI(h.NewApp(name), r.tr.spans(), r.tr.span(), h.Addr(0).Addr)
}

func (r *psdRun) run(c *colRun) {
	t0 := time.Now()
	var err error
	r.tr.spans().host(r.tr.span(), "sim", "Sim.Run", func(int) { err = r.n.Run() })
	c.simWall += time.Since(t0)
	if err != nil {
		c.fail(c.ops-c.failed, "sim: "+err.Error())
	}
}

func (r *psdRun) observed() *observed {
	reg := r.n.Metrics()
	if reg == nil {
		return nil
	}
	return &observed{snap: reg.Snapshot(r.n.Now()), reg: reg, recs: r.n.Trace().Records()}
}

// recvFull reads exactly len(buf) bytes.
func recvFull(app psd.App, t *psd.Thread, fd int, buf []byte) error {
	for got := 0; got < len(buf); {
		n, err := app.Recv(t, fd, buf[got:], 0)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("EOF after %d of %d bytes", got, len(buf))
		}
		got += n
	}
	return nil
}

// --- manyflows -----------------------------------------------------------

const (
	flowPort     = 7000
	flowMsgBytes = 64
)

func prepareManyflows(seed int64, smoke bool) func(string, *tracing) colRun {
	in := newInputs(seed, "manyflows")
	clients, perClient, rounds := 4, 256, 8
	if smoke {
		perClient, rounds = 12, 2
	}
	sessions := clients * perClient
	msg := in.payload(flowMsgBytes)
	starts := make([]time.Duration, clients)
	orders := make([][][]int, clients) // [client][round] -> session visiting order
	for c := range starts {
		starts[c] = in.offset(time.Millisecond, 20*time.Millisecond)
		orders[c] = make([][]int, rounds)
		for r := range orders[c] {
			orders[c][r] = in.order(perClient)
		}
	}
	simSeed := in.simSeed()

	return func(col string, tr *tracing) colRun {
		r := newPsdRun(simSeed, tr)
		arch := psdArch(col)
		c := colRun{ops: sessions * rounds, conns: sessions}
		srv := r.n.Host("srv", "10.0.0.1", arch)
		var firstErr error
		fail := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}

		// Server: one process, one thread per accepted session, each
		// echoing until its client closes.
		sapp := r.app(srv, "echo")
		srv.Spawn("srv", func(t *psd.Thread) {
			ls, err := sapp.Socket(t, psd.SockStream)
			if err != nil {
				fail(err)
				return
			}
			if err := sapp.Bind(t, ls, psd.SockAddr{Port: flowPort}); err != nil {
				fail(err)
				return
			}
			if err := sapp.Listen(t, ls, 64); err != nil {
				fail(err)
				return
			}
			for i := 0; i < sessions; i++ {
				fd, _, err := sapp.Accept(t, ls)
				if err != nil {
					fail(err)
					return
				}
				srv.Spawn(fmt.Sprintf("srv-conn%d", i), func(ct *psd.Thread) {
					buf := make([]byte, flowMsgBytes)
					for recvFull(sapp, ct, fd, buf) == nil {
						if _, err := sapp.Send(ct, fd, buf, 0); err != nil {
							fail(err)
							break
						}
					}
					_ = sapp.Close(ct, fd) // the client has already closed its side
				})
			}
			fail(sapp.Close(t, ls))
		})

		// Clients: each host opens its sessions, waits until all 1 024
		// are established, then echoes over every session once per
		// round in the seeded order. One thread per host, closed loop.
		var established sim.WaitGroup
		established.Add(clients)
		var begin, end time.Duration
		bad := 0
		for ci := 0; ci < clients; ci++ {
			ci := ci
			h := r.n.Host(fmt.Sprintf("cli%d", ci), fmt.Sprintf("10.0.1.%d", ci+1), arch)
			app := r.app(h, "flows")
			h.Spawn(h.Name(), func(t *psd.Thread) {
				t.Sleep(starts[ci])
				fds := make([]int, perClient)
				for s := range fds {
					fd, err := app.Socket(t, psd.SockStream)
					if err != nil {
						fail(err)
						established.Done()
						return
					}
					t0 := t.Now()
					if err := app.Connect(t, fd, srv.Addr(flowPort)); err != nil {
						fail(fmt.Errorf("cli%d session %d: %w", ci, s, err))
						established.Done()
						return
					}
					c.connect = append(c.connect, us(t.Now().Sub(t0)))
					fds[s] = fd
				}
				established.Done()
				established.Wait(t)
				if begin == 0 {
					begin = t.Now().Duration()
				}
				out := append([]byte(nil), msg...)
				buf := make([]byte, flowMsgBytes)
				for round := 0; round < rounds; round++ {
					for _, s := range orders[ci][round] {
						// Tag the payload so a reply delivered on the
						// wrong session cannot compare equal.
						binary.BigEndian.PutUint32(out, uint32(ci<<16|s))
						t1 := t.Now()
						if _, err := app.Send(t, fds[s], out, 0); err != nil {
							fail(err)
							return
						}
						if err := recvFull(app, t, fds[s], buf); err != nil {
							fail(err)
							return
						}
						c.rtt = append(c.rtt, us(t.Now().Sub(t1)))
						if !bytes.Equal(buf, out) {
							bad++
						}
						c.bytes += flowMsgBytes
					}
				}
				if now := t.Now().Duration(); now > end {
					end = now
				}
				for _, fd := range fds {
					fail(app.Close(t, fd))
				}
			})
		}

		r.run(&c)
		c.events = r.n.Sim().Dispatched()
		c.virt = end - begin
		if firstErr != nil {
			c.fail(c.ops-len(c.rtt), firstErr.Error())
		}
		if bad > 0 {
			c.fail(bad, fmt.Sprintf("%d echoes differ from what was sent", bad))
		}
		c.obs = r.observed()
		return c
	}
}

// --- vipchain ------------------------------------------------------------

const (
	vipAddr     = "10.0.0.100"
	vipPort     = uint16(80)
	vipBackPort = uint16(8080)
	vipReqBytes = 256
	vipRules    = 128
	vipDrain    = 90 * time.Second
	vipQuit     = 'Q' // request prefix that stops a backend's accept loop
)

func prepareVipchain(seed int64, smoke bool) func(string, *tracing) colRun {
	in := newInputs(seed, "vipchain")
	clients, perClient, backends, respBytes := 16, 64, 4, 16<<10
	if smoke {
		clients, perClient, respBytes = 4, 4, 4<<10
	}
	req := in.payload(vipReqBytes)
	req[0] = 'R'
	resp := in.payload(respBytes)
	starts := make([]time.Duration, clients)
	for c := range starts {
		starts[c] = in.offset(time.Millisecond, 50*time.Millisecond)
	}
	simSeed := in.simSeed()

	return func(col string, tr *tracing) colRun {
		r := newPsdRun(simSeed, tr)
		arch := psdArch(col)
		c := colRun{ops: clients * perClient, conns: clients * perClient}
		var firstErr error
		fail := func(err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}

		lb := r.n.Host("lb", "10.0.0.2", arch)
		pool := make([]*psd.Host, backends)
		specs := make([]psd.BackendSpec, backends)
		for i := range pool {
			pool[i] = r.n.Host(fmt.Sprintf("be%d", i), fmt.Sprintf("10.0.1.%d", i+1), arch)
			specs[i] = psd.BackendSpec{Host: pool[i], Port: vipBackPort}
		}
		if _, err := lb.InstallVIP(vipAddr, vipPort, specs...); err != nil {
			c.fail(c.ops, err.Error())
			return c
		}
		// 128 rules that match nothing sit ahead of conntrack and NAT,
		// so every frame walks the whole chain (netfilter's worst case).
		plane := lb.Dataplane()
		for i := 0; i < vipRules; i++ {
			prog := filter.Compile(filter.MatchSpec{RemoteIP: wire.IP(192, 0, 2, byte(1+i))})
			if _, err := plane.Chain.Append(prog, filter.VerdictDrop); err != nil {
				c.fail(c.ops, err.Error())
				return c
			}
		}
		ctFlowsPeak := 0
		if tr != nil {
			r.n.Sim().Every(10*time.Millisecond, func() { ctFlowsPeak = max(ctFlowsPeak, plane.FlowCount()) })
		}

		for i, h := range pool {
			h := h
			app := r.app(h, "backend")
			h.Spawn(fmt.Sprintf("be%d", i), func(t *psd.Thread) {
				ls, err := app.Socket(t, psd.SockStream)
				if err != nil {
					fail(err)
					return
				}
				if err := app.Bind(t, ls, psd.SockAddr{Port: vipBackPort}); err != nil {
					fail(err)
					return
				}
				if err := app.Listen(t, ls, 64); err != nil {
					fail(err)
					return
				}
				buf := make([]byte, vipReqBytes)
				for {
					fd, _, err := app.Accept(t, ls)
					if err != nil {
						fail(err)
						return
					}
					if err := recvFull(app, t, fd, buf); err != nil {
						fail(err)
					} else if buf[0] == vipQuit {
						fail(app.Close(t, fd))
						break
					} else if _, err := app.Send(t, fd, resp, 0); err != nil {
						fail(err)
					}
					fail(app.Close(t, fd))
				}
				fail(app.Close(t, ls))
			})
		}

		var done sim.WaitGroup
		done.Add(clients)
		var begin, end time.Duration
		bad, served := 0, 0
		cliHosts := make([]*psd.Host, clients)
		for ci := range cliHosts {
			ci := ci
			h := r.n.Host(fmt.Sprintf("cli%d", ci), fmt.Sprintf("10.0.2.%d", ci+1), arch)
			cliHosts[ci] = h
			app := r.app(h, "client")
			h.Spawn(h.Name(), func(t *psd.Thread) {
				defer done.Done()
				t.Sleep(starts[ci])
				if begin == 0 || t.Now().Duration() < begin {
					begin = t.Now().Duration()
				}
				buf := make([]byte, respBytes)
				for k := 0; k < perClient; k++ {
					fd, err := app.Socket(t, psd.SockStream)
					if err != nil {
						fail(err)
						return
					}
					t0 := t.Now()
					if err := app.Connect(t, fd, psd.Addr(vipAddr, vipPort)); err != nil {
						fail(fmt.Errorf("cli%d conn %d: %w", ci, k, err))
						return
					}
					c.connect = append(c.connect, us(t.Now().Sub(t0)))
					if _, err := app.Send(t, fd, req, 0); err != nil {
						fail(err)
						return
					}
					if err := recvFull(app, t, fd, buf); err != nil {
						fail(fmt.Errorf("cli%d conn %d: %w", ci, k, err))
						return
					}
					if !bytes.Equal(buf, resp) {
						bad++
					}
					served++
					c.bytes += int64(respBytes)
					fail(app.Close(t, fd))
				}
				if now := t.Now().Duration(); now > end {
					end = now
				}
			})
		}

		// Once every client is done, tell each backend directly (not
		// through the VIP) to stop serving, so Run can return.
		qapp := r.app(cliHosts[0], "quitter")
		cliHosts[0].Spawn("quitter", func(t *psd.Thread) {
			done.Wait(t)
			quit := make([]byte, vipReqBytes)
			quit[0] = vipQuit
			for _, b := range pool {
				fd, err := qapp.Socket(t, psd.SockStream)
				if err != nil {
					fail(err)
					return
				}
				if err := qapp.Connect(t, fd, b.Addr(vipBackPort)); err != nil {
					fail(err)
					return
				}
				if _, err := qapp.Send(t, fd, quit, 0); err != nil {
					fail(err)
				}
				fail(qapp.Close(t, fd))
			}
		})

		r.run(&c)
		c.virt = end - begin
		if firstErr != nil {
			c.fail(c.ops-served, firstErr.Error())
		}
		if bad > 0 {
			c.fail(bad, fmt.Sprintf("%d responses differ from what the backend sent", bad))
		}

		// Conservation: after the drain nothing may be left behind.
		if err := r.n.RunFor(vipDrain); err != nil {
			c.fail(1, "drain: "+err.Error())
		}
		c.events = r.n.Sim().Dispatched()
		hosts := append(append([]*psd.Host{lb}, pool...), cliHosts...)
		socks, sess := 0, 0
		for _, h := range hosts {
			socks += len(h.Netstat())
			s, _, _, _ := h.ServerStats()
			sess += s
		}
		if residue := plane.FlowCount() + plane.SNATInUse() + socks + sess; residue > 0 {
			c.fail(residue, fmt.Sprintf("leaked after drain: %d flows, %d SNAT ports, %d sockets, %d sessions",
				plane.FlowCount(), plane.SNATInUse(), socks, sess))
		}
		if c.obs = r.observed(); c.obs != nil {
			c.obs.ctFlowsPeak = ctFlowsPeak
		}
		return c
	}
}

// --- city ----------------------------------------------------------------

const cityDrain = 75 * time.Second

// cityConfig is the workload's RunCity input at the given simulator seed.
func cityConfig(simSeed int64, districts int, smoke bool) psd.CityConfig {
	cfg := psd.CityConfig{
		Seed: simSeed, Districts: districts,
		ServersPerDistrict: 4, ClientsPerDistrict: 36, ConnsPerClient: 6,
		CrossEvery: 2, OrphanEvery: 7, MsgBytes: 256,
		Arch: psd.Decomposed(), Shards: 2, Drain: cityDrain,
	}
	if smoke {
		cfg.Districts, cfg.ServersPerDistrict, cfg.ClientsPerDistrict, cfg.ConnsPerClient = 3, 2, 6, 3
	}
	return cfg
}

func prepareCity(seed int64, smoke bool) func(string, *tracing) colRun {
	cfg := cityConfig(citySeed(seed), 12, smoke)

	return func(col string, tr *tracing) colRun {
		cfg := cfg
		if tr != nil {
			cfg.Trace = tracedLayers
		}
		conns := cfg.Districts * cfg.ClientsPerDistrict * cfg.ConnsPerClient
		c := colRun{ops: conns, conns: conns}
		t0 := time.Now()
		var rep *psd.CityReport
		var err error
		tr.spans().host(tr.span(), "sim", "Group.Run", func(int) { rep, err = psd.RunCity(cfg) })
		c.simWall = time.Since(t0)
		if err != nil {
			c.fail(c.ops, "city: "+err.Error())
			return c
		}
		if err := rep.Check(); err != nil {
			c.fail(cityResidue(rep), err.Error())
		}
		c.events, c.windows, c.perShard = rep.DispatchedTotal, rep.Windows, rep.DispatchedPerShard
		// RunCity reports nothing per connection; the registry it always
		// carries is the only view, so the connect quantiles are read off
		// the per-stack histogram views in the snapshot. Its makespan
		// swings between ~1 s and ~2.7 s with the simulator seed (one
		// stalled connection holds Run open), so goodput is taken over
		// the whole run, the fixed drain included.
		c.virtTotal = rep.Snapshot.At
		c.virt = c.virtTotal
		c.bytes = int64(conns-int(rep.Churn.OrphansAborted)) * int64(cfg.MsgBytes)
		c.connect = histViewSamples(rep.Snapshot, ".connect_ns")
		if tr != nil {
			c.obs = &observed{snap: *rep.Snapshot, recs: rep.Trace.Records()}
		}
		return c
	}
}

// cityResidue counts what a failed conservation check left over.
func cityResidue(rep *psd.CityReport) int {
	c := rep.Churn
	abs := func(v int64) int {
		if v < 0 {
			v = -v
		}
		return int(v)
	}
	n := abs(c.ConnSetups-c.ConnTeardowns-c.OrphansAborted) + abs(c.SessionsMade-c.SessionsReaped) +
		abs(c.LiveSessions) + abs(c.PortsInUse) + abs(c.TimeWait)
	if n == 0 {
		n = 1 // a trunk or dispatch ledger failed instead
	}
	return n
}

// histViewSamples expands every histogram in the snapshot whose name
// ends in suffix into count-weighted pseudo-samples (µs): each stack
// contributes its p50 for the lower half of its samples, its p90 up to
// the 90th and its p99 above, which is as much as a HistView keeps.
func histViewSamples(snap *psd.MetricsSnapshot, suffix string) []float64 {
	var out []float64
	for _, it := range snap.Items {
		if it.Hist == nil || it.Hist.Count == 0 || !strings.HasSuffix(it.Name, suffix) {
			continue
		}
		n := int(it.Hist.Count)
		for i := 0; i < n; i++ {
			v := it.Hist.P99
			switch q := float64(i+1) / float64(n); {
			case q <= 0.5:
				v = it.Hist.P50
			case q <= 0.9:
				v = it.Hist.P90
			}
			out = append(out, float64(v)/1e3)
		}
	}
	return out
}
