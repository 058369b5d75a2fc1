package bench

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/socketapi"
)

// ttcp constants matching the paper's methodology: a memory-to-memory
// transfer of 16 MB in 8 KB writes.
const (
	ttcpTotalBytes = 16 << 20
	ttcpChunk      = 8 << 10
	ttcpPort       = 5001
)

// TTCPResult is one throughput measurement.
type TTCPResult struct {
	Bytes    int
	Duration time.Duration
	Err      error
}

// KBps returns throughput in KB/second (1 KB = 1024 bytes, as ttcp
// reports).
func (r TTCPResult) KBps() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1024 / r.Duration.Seconds()
}

// RunTTCP runs the throughput benchmark on a fresh world built from cfg
// in env, with the given receive buffer size (KB); totalBytes 0 means
// the paper's 16 MB.
func RunTTCP(env *Env, cfg SysConfig, rcvBufKB int, totalBytes int) TTCPResult {
	return runStreamOn(streamWorld(env, cfg, false), "ttcp", rcvBufKB, totalBytes, 0)
}

// runStreamOn is the one-way TCP stream workload on the world it is
// handed: a source on host A writes totalBytes (0 means 16 MB) in 8 KB
// chunks to a sink on host B. A positive interval paces the source to
// one chunk per interval, scheduled against absolute deadlines so
// send-side blocking cannot skew the offered rate; 0 sends flat out.
// name prefixes the process names (and so the registry scopes) and
// labels the run.
func runStreamOn(w *World, name string, rcvBufKB, totalBytes int, interval time.Duration) TTCPResult {
	if totalBytes == 0 {
		totalBytes = ttcpTotalBytes
	}
	res := TTCPResult{}
	var start, end sim.Time
	payload := make([]byte, ttcpChunk)
	for i := range payload {
		payload[i] = byte(i)
	}

	sink := w.NewB(name + "-sink")
	source := w.NewA(name + "-source")

	w.Sim.Spawn("sink", func(p *sim.Proc) {
		ls, err := sink.Socket(p, socketapi.SockStream)
		if err != nil {
			res.Err = err
			return
		}
		sink.SetSockOpt(p, ls, socketapi.SoRcvBuf, rcvBufKB*1024)
		if err := sink.Bind(p, ls, socketapi.SockAddr{Port: ttcpPort}); err != nil {
			res.Err = err
			return
		}
		sink.Listen(p, ls, 1)
		fd, _, err := sink.Accept(p, ls)
		if err != nil {
			res.Err = err
			return
		}
		got := 0
		buf := make([]byte, ttcpChunk)
		zc, useZC := sink.(socketapi.ZeroCopyAPI)
		useZC = useZC && w.Cfg.NewAPI
		for {
			var n int
			var err error
			if useZC {
				var view []byte
				view, _, err = zc.RecvZC(p, fd, ttcpChunk, 0)
				n = len(view)
			} else {
				n, err = sink.Recv(p, fd, buf, 0)
			}
			if err != nil {
				res.Err = err
				return
			}
			if n == 0 {
				break
			}
			got += n
		}
		end = p.Now()
		res.Bytes = got
		sink.Close(p, fd)
		sink.Close(p, ls)
	})

	w.Sim.Spawn("source", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, err := source.Socket(p, socketapi.SockStream)
		if err != nil {
			res.Err = err
			return
		}
		source.SetSockOpt(p, fd, socketapi.SoSndBuf, rcvBufKB*1024)
		if err := source.Connect(p, fd, socketapi.SockAddr{Addr: w.IPB, Port: ttcpPort}); err != nil {
			res.Err = err
			return
		}
		start = p.Now()
		zc, useZC := source.(socketapi.ZeroCopyAPI)
		useZC = useZC && w.Cfg.NewAPI
		for i, sent := 0, 0; sent < totalBytes; i++ {
			if target := start.Add(time.Duration(i) * interval); p.Now() < target {
				p.Sleep(target.Sub(p.Now()))
			}
			chunk := ttcpChunk
			if sent+chunk > totalBytes {
				chunk = totalBytes - sent
			}
			var n int
			var err error
			if useZC {
				n, err = zc.SendZC(p, fd, payload[:chunk], 0)
			} else {
				n, err = source.Send(p, fd, payload[:chunk], 0)
			}
			if err != nil {
				res.Err = err
				return
			}
			sent += n
		}
		source.Close(p, fd)
	})

	if err := w.Sim.Run(); err != nil && res.Err == nil {
		res.Err = err
	}
	res.Duration = end.Sub(start)
	if res.Err == nil && res.Bytes != totalBytes {
		res.Err = fmt.Errorf("%s: received %d of %d bytes", name, res.Bytes, totalBytes)
	}
	res.Err = w.audit(res.Err)
	w.env.noteRun(w.Cfg.Name+" "+name, res.Duration, w.Rec)
	return res
}

// LatResult is one round-trip latency measurement.
type LatResult struct {
	Rounds int
	Avg    time.Duration
	Err    error
	NA     bool
}

// Ms returns the average round trip in milliseconds.
func (r LatResult) Ms() float64 { return float64(r.Avg) / float64(time.Millisecond) }

const protolatPort = 5002

// RunProtolat measures average round-trip latency for msgSize-byte
// messages over TCP or UDP, in the manner of the paper's protolat
// program: a client-server ping-pong on an otherwise idle network,
// excluding a warmup round (connection setup, ARP). The world is built
// from cfg in env.
func RunProtolat(env *Env, cfg SysConfig, udp bool, msgSize, rounds int) LatResult {
	if !udp && cfg.Spec.Prof.LargeTCPSendBroken && msgSize >= 1024 {
		// The 386BSD/BNR2SS large-TCP-packet bug: the paper reports NA.
		return LatResult{NA: true}
	}
	return runProtolatOn(latWorld(env, cfg, false), !udp, msgSize, rounds, nil)
}

// runProtolatOn runs the latency workload on the world it is handed.
// counting, when non-nil, is flipped on after the warmup round and off
// after the measured rounds (the Table 4 instrumentation window).
func runProtolatOn(w *World, tcp bool, msgSize, rounds int, counting func(on bool)) LatResult {
	udp := !tcp
	res := LatResult{Rounds: rounds}
	styp := socketapi.SockStream
	if udp {
		styp = socketapi.SockDgram
	}
	msg := make([]byte, msgSize)

	server := w.NewB("protolat-server")
	client := w.NewA("protolat-client")

	echo := func(p *sim.Proc, api socketapi.API, fd int) bool {
		// Read one full message and send it back.
		buf := make([]byte, msgSize)
		got := 0
		for got < msgSize {
			n, from, err := api.RecvFrom(p, fd, buf[got:], 0)
			if err != nil {
				res.Err = err
				return false
			}
			if n == 0 {
				return false
			}
			got += n
			if udp {
				if _, err := api.SendTo(p, fd, buf[:n], 0, from); err != nil {
					res.Err = err
					return false
				}
				return true
			}
		}
		if _, err := api.Send(p, fd, buf, 0); err != nil {
			res.Err = err
			return false
		}
		return true
	}

	w.Sim.Spawn("server", func(p *sim.Proc) {
		fd, err := server.Socket(p, styp)
		if err != nil {
			res.Err = err
			return
		}
		if err := server.Bind(p, fd, socketapi.SockAddr{Port: protolatPort}); err != nil {
			res.Err = err
			return
		}
		conn := fd
		if !udp {
			server.Listen(p, fd, 1)
			c, _, err := server.Accept(p, fd)
			if err != nil {
				res.Err = err
				return
			}
			conn = c
		}
		for i := 0; i < rounds+1; i++ { // +1 warmup
			if !echo(p, server, conn) {
				return
			}
		}
		if !udp {
			server.Close(p, conn)
		}
		server.Close(p, fd)
	})

	w.Sim.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, err := client.Socket(p, styp)
		if err != nil {
			res.Err = err
			return
		}
		if err := client.Connect(p, fd, socketapi.SockAddr{Addr: w.IPB, Port: protolatPort}); err != nil {
			res.Err = err
			return
		}
		buf := make([]byte, msgSize)
		roundTrip := func() bool {
			if _, err := client.Send(p, fd, msg, 0); err != nil {
				res.Err = err
				return false
			}
			got := 0
			for got < msgSize {
				n, err := client.Recv(p, fd, buf[got:], 0)
				if err != nil {
					res.Err = err
					return false
				}
				if n == 0 {
					res.Err = fmt.Errorf("protolat: premature EOF")
					return false
				}
				got += n
				if udp {
					break
				}
			}
			return true
		}
		if !roundTrip() { // warmup: ARP, slow start, caches
			return
		}
		if counting != nil {
			counting(true)
		}
		start := p.Now()
		for i := 0; i < rounds; i++ {
			if !roundTrip() {
				return
			}
		}
		res.Avg = time.Duration(int64(p.Now().Sub(start)) / int64(rounds))
		if counting != nil {
			counting(false)
		}
		client.Close(p, fd)
	})

	if err := w.Sim.Run(); err != nil && res.Err == nil {
		res.Err = err
	}
	res.Err = w.audit(res.Err)
	proto := "tcp"
	if udp {
		proto = "udp"
	}
	w.env.noteRun(fmt.Sprintf("%s protolat-%s-%d", w.Cfg.Name, proto, msgSize),
		time.Duration(res.Rounds)*res.Avg, w.Rec)
	return res
}
