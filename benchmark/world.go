package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"repro/internal/bench"
	"repro/internal/costs"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/trace"
)

// The two-host workloads (bulk, bulk-lossy, rpc, proxy) run on
// bench.World: host A and host B on one 10 Mb/s segment, built from the
// same SysConfig rows psdbench prints Tables 2 and 3 from.

const (
	streamChunk = 8 << 10 // ttcp's write size
	streamPort  = 5001
	rpcPort     = 5002
	proxyInPort = 5003
	proxyOut    = 5004
)

// benchConfig maps a column to its SysConfig row.
func benchConfig(col string) bench.SysConfig {
	switch col {
	case colInkernel:
		return bench.DECConfigs()[0]
	case colUxserver:
		return bench.DECConfigs()[2]
	case colCore:
		return bench.HeadlineConfig()
	case colNewapi:
		return bench.NewAPIConfigs()[2]
	case colOffload:
		return bench.OffloadConfig()
	}
	panic("benchmark: unknown column " + col)
}

// tracedLayers are the flight-recorder layers a traced rep captures.
var tracedLayers = []trace.Layer{trace.LayerNet, trace.LayerFilter, trace.LayerStack, trace.LayerCore}

// worldRun is one world plus the observation state of a traced rep.
type worldRun struct {
	w      *bench.World
	tr     *tracing
	ledger [costs.NumComponents]time.Duration
}

// buildWorld instantiates cfg; in a traced rep the world carries the
// registry, the flight recorder and the virtual-time ledger.
func buildWorld(cfg bench.SysConfig, simSeed int64, tr *tracing, observe bool) *worldRun {
	r := &worldRun{tr: tr}
	if tr != nil && observe {
		bench.EnableMetrics()
		bench.EnableTrace(0, tracedLayers...)
		defer bench.DisableMetrics()
		defer bench.DisableTrace()
	}
	r.w = cfg.Build(simSeed)
	if tr != nil && observe {
		r.w.Observe(func(comp costs.Component, d time.Duration) { r.ledger[comp] += d })
	}
	return r
}

// apiA and apiB create an application on host A or B, decorated with
// socket-call spans in a traced rep.
func (r *worldRun) apiA(name string) socketapi.API {
	return traceAPI(r.w.NewA(name), r.tr.spans(), r.tr.span(), r.w.IPA)
}

func (r *worldRun) apiB(name string) socketapi.API {
	return traceAPI(r.w.NewB(name), r.tr.spans(), r.tr.span(), r.w.IPB)
}

// run drives the simulator to completion inside a host-clock span and
// folds the outcome into c.
func (r *worldRun) run(c *colRun) {
	t0 := time.Now()
	var err error
	r.tr.spans().host(r.tr.span(), "sim", "Sim.Run", func(int) { err = r.w.Sim.Run() })
	c.simWall += time.Since(t0)
	c.events += r.w.Sim.Dispatched()
	if err != nil {
		c.fail(c.ops-c.failed, "sim: "+err.Error())
	}
}

// observed captures the layers' view of the world after its run.
func (r *worldRun) observed() *observed {
	if r.w.Reg == nil {
		return nil
	}
	return &observed{
		snap: r.w.Reg.Snapshot(r.w.Sim.Now().Duration()), reg: r.w.Reg, recs: r.w.Rec.Records(),
		ledger: r.ledger, hasLedger: true,
	}
}

// --- bulk, bulk-lossy ----------------------------------------------------

func prepareBulk(name string, seed int64, smoke, lossy bool) func(string, *tracing) colRun {
	in := newInputs(seed, name)
	total := 16 << 20
	if smoke {
		total = 256 << 10
	}
	st := newStream(in, total, time.Millisecond, 200*time.Millisecond)
	simSeed := in.simSeed()

	return func(col string, tr *tracing) colRun {
		cfg := benchConfig(col)
		r := buildWorld(cfg, simSeed, tr, true)
		if lossy {
			r.w.Seg.Faults().SetDefaultRates(fault.Rates{Drop: 0.01, Reorder: 0.005, Dup: 0.001})
		}
		c := colRun{ops: total >> 10, conns: 1}
		streamTransfer(r, cfg, &c, &st)
		c.obs = r.observed()
		return c
	}
}

// stream is the seeded byte stream of the bulk and proxy workloads: the
// chunk pattern repeated to total bytes, written in 8 KiB writes after
// the source's start offset, and the rolling CRC-32 the sink must reach.
type stream struct {
	chunk []byte
	total int
	start time.Duration
	want  uint32
}

func newStream(in *inputs, total int, minStart, spread time.Duration) stream {
	chunk := in.payload(streamChunk)
	return stream{chunk: chunk, total: total, start: in.offset(minStart, spread), want: streamCRC(chunk, total)}
}

// acceptOne opens a listening socket with the configuration's buffer
// and accepts one connection on it.
func acceptOne(p *sim.Proc, api socketapi.API, port uint16, bufBytes int) (ls, fd int, err error) {
	if ls, err = api.Socket(p, socketapi.SockStream); err != nil {
		return
	}
	if err = api.SetSockOpt(p, ls, socketapi.SoRcvBuf, bufBytes); err != nil {
		return
	}
	if err = api.Bind(p, ls, socketapi.SockAddr{Port: port}); err != nil {
		return
	}
	if err = api.Listen(p, ls, 1); err != nil {
		return
	}
	fd, _, err = api.Accept(p, ls)
	return
}

// sunk is what a sink saw of a stream.
type sunk struct {
	got int
	crc uint32
	end sim.Time // when the last read returned
}

// sink accepts one connection on port and reads it until limit bytes
// or EOF, keeping a rolling CRC-32 of what arrives.
func (st *stream) sink(p *sim.Proc, api socketapi.API, cfg bench.SysConfig, port uint16, limit int, out *sunk) error {
	ls, fd, err := acceptOne(p, api, port, cfg.RcvBufKB*1024)
	if err != nil {
		return err
	}
	buf := make([]byte, streamChunk)
	zc, _ := api.(socketapi.ZeroCopyAPI)
	for out.got < limit {
		var b []byte
		if cfg.NewAPI {
			b, _, err = zc.RecvZC(p, fd, streamChunk, 0)
		} else {
			var n int
			n, err = api.Recv(p, fd, buf, 0)
			b = buf[:n]
		}
		if err != nil {
			return err
		}
		if len(b) == 0 {
			break
		}
		out.crc = crc32.Update(out.crc, crc32.IEEETable, b)
		out.got += len(b)
	}
	out.end = p.Now()
	_ = api.Close(p, fd) // the transfer is already complete and counted
	return api.Close(p, ls)
}

// source connects to dst after the start offset and writes the stream.
// It records the connect time in c and returns when the connection was
// established.
func (st *stream) source(p *sim.Proc, api socketapi.API, cfg bench.SysConfig, dst socketapi.SockAddr, c *colRun) (begin sim.Time, err error) {
	p.Sleep(st.start)
	fd, err := api.Socket(p, socketapi.SockStream)
	if err != nil {
		return 0, err
	}
	if err := api.SetSockOpt(p, fd, socketapi.SoSndBuf, cfg.RcvBufKB*1024); err != nil {
		return 0, err
	}
	t0 := p.Now()
	if err := api.Connect(p, fd, dst); err != nil {
		return 0, err
	}
	begin = p.Now()
	c.connect = append(c.connect, us(begin.Sub(t0)))
	zc, _ := api.(socketapi.ZeroCopyAPI)
	for sent := 0; sent < st.total; {
		n := min(streamChunk, st.total-sent)
		if cfg.NewAPI {
			n, err = zc.SendZC(p, fd, st.chunk[:n], 0)
		} else {
			n, err = api.Send(p, fd, st.chunk[:n], 0)
		}
		if err != nil {
			return begin, err
		}
		sent += n
	}
	return begin, api.Close(p, fd)
}

// check folds a finished transfer into c: goodput from connection
// establishment to the sink's last read, and every op failed if the
// stream came back short or wrong. errs are the parties' errors, sink
// first; label names the transfer in messages.
func (st *stream) check(c *colRun, label string, out *sunk, begin sim.Time, errs ...error) {
	c.bytes, c.virt = int64(out.got), out.end.Sub(begin)
	for _, err := range errs {
		if err != nil {
			c.fail(c.ops-c.failed, label+"transfer: "+err.Error())
			return
		}
	}
	switch {
	case out.got != st.total:
		c.fail((st.total-out.got+1023)>>10, fmt.Sprintf("%ssink got %d of %d bytes", label, out.got, st.total))
	case out.crc != st.want:
		c.fail(c.ops-c.failed, fmt.Sprintf("%ssink checksum %08x, want %08x", label, out.crc, st.want))
	}
}

// streamTransfer is ttcp: a source on A writes the stream to a sink on
// B, which reads until EOF.
func streamTransfer(r *worldRun, cfg bench.SysConfig, c *colRun, st *stream) {
	sink, source := r.apiB("ttcp-sink"), r.apiA("ttcp-source")
	var out sunk
	var begin sim.Time
	var sinkErr, srcErr error
	r.w.Sim.Spawn("sink", func(p *sim.Proc) {
		sinkErr = st.sink(p, sink, cfg, streamPort, math.MaxInt, &out)
	})
	r.w.Sim.Spawn("source", func(p *sim.Proc) {
		begin, srcErr = st.source(p, source, cfg, socketapi.SockAddr{Addr: r.w.IPB, Port: streamPort}, c)
	})
	r.run(c)
	st.check(c, "", &out, begin, sinkErr, srcErr)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// --- rpc -----------------------------------------------------------------

func prepareRPC(seed int64, smoke bool) func(string, *tracing) colRun {
	in := newInputs(seed, "rpc")
	rounds := 2000
	if smoke {
		rounds = 40
	}
	msg := in.payload(1)
	start := in.offset(time.Millisecond, 50*time.Millisecond)
	simSeed := in.simSeed()

	return func(col string, tr *tracing) colRun {
		cfg := benchConfig(col)
		c := colRun{ops: 2 * rounds, conns: 1}

		// TCP first: its per-round samples are the column's virt_rtt.
		r := buildWorld(cfg, simSeed, tr, true)
		tcp := pingPong(r, &c, true, msg, rounds, start)
		c.rtt = tcp.samples
		c.tcpLatMs = tcp.meanMs
		c.bytes, c.virt = int64(2*rounds*len(msg)), tcp.span
		c.obs = r.observed()

		r = buildWorld(cfg, simSeed, tr, false)
		udp := pingPong(r, &c, false, msg, rounds, start)
		c.udpLatMs = udp.meanMs
		return c
	}
}

type pingResult struct {
	samples []float64     // virtual µs per round
	meanMs  float64       // protolat's number: total / rounds
	span    time.Duration // first measured send to last reply
}

// pingPong is protolat: rounds request/reply exchanges of msg after one
// warm-up round (ARP, connection set-up), on an otherwise idle network.
// Every reply must equal the request.
func pingPong(r *worldRun, c *colRun, tcp bool, msg []byte, rounds int, start time.Duration) pingResult {
	w := r.w
	server, client := r.apiB("protolat-server"), r.apiA("protolat-client")
	styp := socketapi.SockDgram
	if tcp {
		styp = socketapi.SockStream
	}
	var res pingResult
	var srvErr, cliErr error
	bad := 0

	w.Sim.Spawn("server", func(p *sim.Proc) {
		srvErr = func() error {
			fd, err := server.Socket(p, styp)
			if err != nil {
				return err
			}
			if err := server.Bind(p, fd, socketapi.SockAddr{Port: rpcPort}); err != nil {
				return err
			}
			conn := fd
			if tcp {
				if err := server.Listen(p, fd, 1); err != nil {
					return err
				}
				if conn, _, err = server.Accept(p, fd); err != nil {
					return err
				}
			}
			buf := make([]byte, len(msg))
			for i := 0; i < rounds+1; i++ {
				n, from, err := server.RecvFrom(p, conn, buf, 0)
				if err != nil {
					return err
				}
				if n == 0 {
					return fmt.Errorf("server: EOF in round %d", i)
				}
				if tcp {
					_, err = server.Send(p, conn, buf[:n], 0)
				} else {
					_, err = server.SendTo(p, conn, buf[:n], 0, from)
				}
				if err != nil {
					return err
				}
			}
			if tcp {
				_ = server.Close(p, conn) // the client may already have closed
			}
			return server.Close(p, fd)
		}()
	})

	w.Sim.Spawn("client", func(p *sim.Proc) {
		cliErr = func() error {
			p.Sleep(start)
			fd, err := client.Socket(p, styp)
			if err != nil {
				return err
			}
			t0 := p.Now()
			if err := client.Connect(p, fd, socketapi.SockAddr{Addr: w.IPB, Port: rpcPort}); err != nil {
				return err
			}
			if tcp {
				c.connect = append(c.connect, us(p.Now().Sub(t0)))
			}
			buf := make([]byte, len(msg))
			roundTrip := func() error {
				if _, err := client.Send(p, fd, msg, 0); err != nil {
					return err
				}
				n, err := client.Recv(p, fd, buf, 0)
				if err != nil {
					return err
				}
				if n != len(msg) || buf[0] != msg[0] {
					bad++
				}
				return nil
			}
			if err := roundTrip(); err != nil { // warm-up: ARP, slow start
				return err
			}
			bad = 0
			res.samples = make([]float64, 0, rounds)
			begin := p.Now()
			for i := 0; i < rounds; i++ {
				t1 := p.Now()
				if err := roundTrip(); err != nil {
					return err
				}
				res.samples = append(res.samples, us(p.Now().Sub(t1)))
			}
			res.span = p.Now().Sub(begin)
			res.meanMs = float64(res.span) / float64(rounds) / 1e6
			return client.Close(p, fd)
		}()
	})

	r.run(c)
	switch {
	case cliErr != nil:
		c.fail(rounds, "client: "+cliErr.Error())
	case srvErr != nil:
		c.fail(rounds, "server: "+srvErr.Error())
	case bad > 0:
		c.fail(bad, fmt.Sprintf("%d replies differ from the request", bad))
	}
	return res
}

// --- proxy ---------------------------------------------------------------

// proxyModes are bench.ProxyModes; splice comes last so it is the world
// the layers are observed on and virt_goodput_kbps is read from.
var proxyModes = bench.ProxyModes

func prepareProxy(seed int64, smoke bool) func(string, *tracing) colRun {
	in := newInputs(seed, "proxy")
	total := 4 << 20
	if smoke {
		total = 128 << 10
	}
	// The source starts past the proxy's listen.
	st := newStream(in, total, 2*time.Millisecond, 100*time.Millisecond)
	simSeed := in.simSeed()

	return func(col string, tr *tracing) colRun {
		cfg := benchConfig(col)
		c := colRun{ops: len(proxyModes) * (total >> 10), conns: 2}
		for _, mode := range proxyModes {
			splice := mode == "splice"
			r := buildWorld(cfg, simSeed, tr, splice)
			m := colRun{ops: total >> 10}
			proxyTransfer(r, cfg, &m, mode, &st)
			c.failed += m.failed
			c.errs = append(c.errs, m.errs...)
			c.events += m.events
			c.simWall += m.simWall
			if splice {
				c.bytes, c.virt, c.connect = m.bytes, m.virt, m.connect
				if c.obs = r.observed(); c.obs != nil {
					// The end hosts copy in every mode; what the modes
					// differ in happens on the proxy host, as in
					// bench.RunProxy.
					c.obs.copyHost = "host.B."
				}
			}
		}
		return c
	}
}

// proxyTransfer is bench.RunProxy's topology: a source on A streams
// through a forwarding proxy on B back to a sink on A, in one of the
// three forwarding modes, with the sink checking the stream.
func proxyTransfer(r *worldRun, cfg bench.SysConfig, c *colRun, mode string, st *stream) {
	w := r.w
	sink, source, proxy := r.apiA("proxy-sink"), r.apiA("proxy-source"), r.apiB("proxy-fwd")
	var out sunk
	var begin sim.Time
	var sinkErr, proxyErr, srcErr error

	w.Sim.Spawn("sink", func(p *sim.Proc) {
		sinkErr = st.sink(p, sink, cfg, proxyOut, st.total, &out)
	})
	w.Sim.Spawn("proxy", func(p *sim.Proc) {
		proxyErr = func() error {
			p.Sleep(time.Millisecond) // let the sink bind
			ls, src, err := acceptOne(p, proxy, proxyInPort, cfg.RcvBufKB*1024)
			if err != nil {
				return err
			}
			dst, err := proxy.Socket(p, socketapi.SockStream)
			if err != nil {
				return err
			}
			if err := proxy.SetSockOpt(p, dst, socketapi.SoSndBuf, cfg.RcvBufKB*1024); err != nil {
				return err
			}
			if err := proxy.Connect(p, dst, socketapi.SockAddr{Addr: w.IPA, Port: proxyOut}); err != nil {
				return err
			}
			if err := forward(p, proxy, mode, dst, src, st.total); err != nil {
				return err
			}
			_ = proxy.Close(p, dst)
			_ = proxy.Close(p, src)
			return proxy.Close(p, ls)
		}()
	})
	w.Sim.Spawn("source", func(p *sim.Proc) {
		// The proxy column never runs NEWAPI, so the plain calls are used.
		begin, srcErr = st.source(p, source, cfg, socketapi.SockAddr{Addr: w.IPB, Port: proxyInPort}, c)
	})

	r.run(c)
	st.check(c, mode+" ", &out, begin, sinkErr, proxyErr, srcErr)
}

// forward pumps total bytes from src to dst inside the proxy process.
func forward(p *sim.Proc, api socketapi.API, mode string, dst, src, total int) error {
	ch, _ := api.(socketapi.ChainAPI)
	switch mode {
	case "bsd":
		buf := make([]byte, streamChunk)
		for moved := 0; moved < total; {
			n, err := api.Recv(p, src, buf, 0)
			if err != nil {
				return err
			}
			if n == 0 {
				return nil
			}
			if _, err := api.Send(p, dst, buf[:n], 0); err != nil {
				return err
			}
			moved += n
		}
	case "chain":
		for moved := 0; moved < total; {
			view, err := ch.RecvPeek(p, src, streamChunk, nil)
			if err != nil {
				return err
			}
			n := view.Chain.Len()
			if n == 0 {
				view.Chain.Release()
				return nil
			}
			if err := ch.RecvRelease(p, src, n); err != nil {
				view.Chain.Release()
				return err
			}
			if _, err := ch.SendChain(p, dst, view.Chain, 0); err != nil {
				return err
			}
			moved += n
		}
	case "splice":
		_, err := ch.Splice(p, dst, src, total)
		return err
	}
	return nil
}
