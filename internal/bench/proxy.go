package bench

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/socketapi"
)

// Proxy forwarding benchmark: a source on host A streams through a
// forwarding proxy on host B back to a sink on host A. The proxy is the
// workload where data movement dominates — every payload byte enters
// and leaves the same process — so it isolates exactly what the chain
// interface buys over flat BSD calls. Three forwarding strategies:
//
//	bsd:    Recv into a flat buffer, Send it on — the classic loop,
//	        two socket-layer copies per forwarded byte.
//	chain:  RecvPeek an aliased view, surrender it to SendChain —
//	        zero copies where the architecture can alias protocol
//	        storage, an honest degradation to copies where a
//	        protection boundary forbids it.
//	splice: one Splice call — the pump runs below the socket API, and
//	        on the decomposed architecture inside the OS server, so
//	        forwarded bytes are never even mapped into the proxy.
const (
	proxyInPort  = 5003 // proxy listens here for the source
	proxyOutPort = 5004 // sink listens here for the proxy
	proxyChunk   = 8 << 10
)

// ProxyModes lists the forwarding strategies in report order.
var ProxyModes = []string{"bsd", "chain", "splice"}

// ProxyResult is one proxy forwarding measurement.
type ProxyResult struct {
	Mode     string
	Bytes    int
	Duration time.Duration // first byte sent to last byte sunk, virtual time

	// Copy accounting on the proxy host (host B), from the socket-layer
	// counters of every stack running there.
	CopiedBytes  int64 // bytes physically copied at the socket layer
	AliasedBytes int64 // bytes moved by reference
	SplicedBytes int64 // bytes moved by Splice
	Segments     int   // frames the proxy host transmitted

	Err error
}

// KBps returns forwarding throughput in KB/second.
func (r ProxyResult) KBps() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1024 / r.Duration.Seconds()
}

// CopiesPerByte is the headline ratio: socket-layer copied bytes on the
// proxy host per payload byte forwarded. 2.0 for the classic loop,
// ~0 for a fully aliased path.
func (r ProxyResult) CopiesPerByte() float64 {
	if r.Bytes == 0 {
		return 0
	}
	return float64(r.CopiedBytes) / float64(r.Bytes)
}

// RunProxy forwards totalBytes (0 means 4 MB) through a proxy on host B
// using the given mode, on a fresh world built from cfg in env.
// Deterministic for a given (env, cfg, mode, totalBytes).
func RunProxy(env *Env, cfg SysConfig, mode string, totalBytes int) ProxyResult {
	return runProxyOn(proxyWorld(env, cfg), mode, totalBytes)
}

// runProxyOn is the forwarding workload on the world it is handed; the
// copy accounting is read from the world's registry.
func runProxyOn(w *World, mode string, totalBytes int) ProxyResult {
	if totalBytes == 0 {
		totalBytes = 4 << 20
	}
	cfg := w.Cfg
	res := ProxyResult{Mode: mode}
	var start, end sim.Time

	sink := w.NewA("proxy-sink")
	source := w.NewA("proxy-source")
	proxy := w.NewB("proxy-fwd")

	w.Sim.Spawn("sink", func(p *sim.Proc) {
		ls, err := sink.Socket(p, socketapi.SockStream)
		if err != nil {
			res.Err = err
			return
		}
		sink.SetSockOpt(p, ls, socketapi.SoRcvBuf, cfg.RcvBufKB*1024)
		if err := sink.Bind(p, ls, socketapi.SockAddr{Port: proxyOutPort}); err != nil {
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
		buf := make([]byte, proxyChunk)
		for got < totalBytes {
			n, err := sink.Recv(p, fd, buf, 0)
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

	w.Sim.Spawn("proxy", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // let the sink bind
		ls, err := proxy.Socket(p, socketapi.SockStream)
		if err != nil {
			res.Err = err
			return
		}
		proxy.SetSockOpt(p, ls, socketapi.SoRcvBuf, cfg.RcvBufKB*1024)
		if err := proxy.Bind(p, ls, socketapi.SockAddr{Port: proxyInPort}); err != nil {
			res.Err = err
			return
		}
		proxy.Listen(p, ls, 1)
		src, _, err := proxy.Accept(p, ls)
		if err != nil {
			res.Err = err
			return
		}
		dst, err := proxy.Socket(p, socketapi.SockStream)
		if err != nil {
			res.Err = err
			return
		}
		proxy.SetSockOpt(p, dst, socketapi.SoSndBuf, cfg.RcvBufKB*1024)
		if err := proxy.Connect(p, dst, socketapi.SockAddr{Addr: w.IPA, Port: proxyOutPort}); err != nil {
			res.Err = err
			return
		}
		if err := forward(p, proxy, mode, dst, src, totalBytes); err != nil {
			res.Err = err
		}
		proxy.Close(p, dst)
		proxy.Close(p, src)
		proxy.Close(p, ls)
	})

	w.Sim.Spawn("source", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond) // let the proxy listen
		fd, err := source.Socket(p, socketapi.SockStream)
		if err != nil {
			res.Err = err
			return
		}
		source.SetSockOpt(p, fd, socketapi.SoSndBuf, cfg.RcvBufKB*1024)
		if err := source.Connect(p, fd, socketapi.SockAddr{Addr: w.IPB, Port: proxyInPort}); err != nil {
			res.Err = err
			return
		}
		start = p.Now()
		payload := make([]byte, proxyChunk)
		for i := range payload {
			payload[i] = byte(i)
		}
		for sent := 0; sent < totalBytes; {
			chunk := proxyChunk
			if sent+chunk > totalBytes {
				chunk = totalBytes - sent
			}
			n, err := source.Send(p, fd, payload[:chunk], 0)
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
		res.Err = fmt.Errorf("proxy: sank %d of %d bytes", res.Bytes, totalBytes)
	}
	res.Err = w.audit(res.Err)
	snap := w.Reg.Snapshot(w.Sim.Now().Duration())
	res.CopiedBytes = snap.SumUnder("host.B.", ".sock_copied_bytes")
	res.AliasedBytes = snap.SumUnder("host.B.", ".sock_aliased_bytes")
	res.SplicedBytes = snap.SumUnder("host.B.", ".splice_bytes")
	segs, _ := snap.Get("host.B.nic.tx_frames")
	res.Segments = int(segs.Value)
	return res
}

// forward pumps totalBytes from src to dst inside the proxy process
// using the selected strategy.
func forward(p *sim.Proc, api socketapi.API, mode string, dst, src, totalBytes int) error {
	switch mode {
	case "bsd":
		buf := make([]byte, proxyChunk)
		for moved := 0; moved < totalBytes; {
			n, err := api.Recv(p, src, buf, 0)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			if _, err := api.Send(p, dst, buf[:n], 0); err != nil {
				return err
			}
			moved += n
		}
		return nil

	case "chain":
		ch, ok := api.(socketapi.ChainAPI)
		if !ok {
			return fmt.Errorf("proxy: %T lacks the chain interface", api)
		}
		for moved := 0; moved < totalBytes; {
			view, err := ch.RecvPeek(p, src, proxyChunk, nil)
			if err != nil {
				return err
			}
			n := view.Chain.Len()
			if n == 0 {
				view.Chain.Release()
				break
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
		return nil

	case "splice":
		ch, ok := api.(socketapi.ChainAPI)
		if !ok {
			return fmt.Errorf("proxy: %T lacks the chain interface", api)
		}
		_, err := ch.Splice(p, dst, src, totalBytes)
		return err

	default:
		return fmt.Errorf("proxy: unknown mode %q", mode)
	}
}

// ProxyMetrics is one row of BENCH_proxy.json: a (configuration,
// forwarding mode) cell with throughput and copy accounting.
type ProxyMetrics struct {
	Config        string  `json:"config"`
	Mode          string  `json:"mode"`
	KBps          float64 `json:"kbps"`
	CopiesPerByte float64 `json:"copies_per_byte"`
	CopiedBytes   int64   `json:"copied_bytes"`
	AliasedBytes  int64   `json:"aliased_bytes"`
	SplicedBytes  int64   `json:"spliced_bytes"`
	Segments      int     `json:"segments"`
}

// RunProxySuite measures every (configuration, mode) cell in env.
// totalBytes sizes each transfer (0 means 4 MB).
func RunProxySuite(env *Env, totalBytes int) ([]ProxyMetrics, error) {
	var out []ProxyMetrics
	for _, cfg := range Columns() {
		for _, mode := range ProxyModes {
			r := RunProxy(env, cfg, mode, totalBytes)
			if r.Err != nil {
				return nil, fmt.Errorf("proxy %s/%s: %w", cfg.Name, mode, r.Err)
			}
			out = append(out, ProxyMetrics{
				Config:        cfg.Name,
				Mode:          mode,
				KBps:          r.KBps(),
				CopiesPerByte: r.CopiesPerByte(),
				CopiedBytes:   r.CopiedBytes,
				AliasedBytes:  r.AliasedBytes,
				SplicedBytes:  r.SplicedBytes,
				Segments:      r.Segments,
			})
		}
	}
	return out, nil
}
