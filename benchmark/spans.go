package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/wire"
)

// Clocks a span can be stamped with. Virtual spans read the simulated
// machine's clock; host spans read this process's monotonic clock.
const (
	clockVirt = "virtual"
	clockHost = "host"
)

// span is one traced interval at a layer boundary. The benchmark
// records its own spans around the calls it makes into each layer;
// spans inside the program are a later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Clock  string `json:"clock"`
	Start  int64  `json:"start"` // ns on Clock
	End    int64  `json:"end"`
	Flow   string `json:"flow,omitempty"` // 5-tuple of a socket call
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// hostNow is the host clock of host spans: ns since the log was made.
func (l *spanLog) hostNow() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.t0))
}

// begin opens a span and returns its id (1-based; 0 is "no span").
func (l *spanLog) begin(parent int, layer, name, clock string, start int64) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Layer: layer, Name: name, Clock: clock, Start: start})
	return len(l.spans)
}

func (l *spanLog) end(id int, end int64, flow string) {
	if l == nil || id == 0 {
		return
	}
	s := &l.spans[id-1]
	s.End, s.Flow = end, flow
}

// host wraps fn in a host-clock span.
func (l *spanLog) host(parent int, layer, name string, fn func(id int)) {
	if l == nil {
		fn(0)
		return
	}
	id := l.begin(parent, layer, name, clockHost, l.hostNow())
	fn(id)
	l.end(id, l.hostNow(), "")
}

// chromeEvent is one "complete" event of the Chrome trace format. The
// two clocks are kept apart as two processes, so a viewer never lays a
// virtual interval over a host one.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // µs
	Dur  float64           `json:"dur"` // µs
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes the log as a Chrome-trace JSON file.
func (l *spanLog) writeChrome(path string) error {
	layerTID := map[string]int{}
	events := make([]chromeEvent, 0, len(l.spans)+2)
	for pid, name := range map[int]string{1: "host clock", 2: "virtual clock"} {
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]string{"name": name}})
	}
	for i := range l.spans {
		s := &l.spans[i]
		tid, ok := layerTID[s.Layer]
		if !ok {
			tid = len(layerTID) + 1
			layerTID[s.Layer] = tid
		}
		pid := 1
		if s.Clock == clockVirt {
			pid = 2
		}
		args := map[string]string{"id": fmt.Sprint(s.ID), "parent": fmt.Sprint(s.Parent), "clock": s.Clock}
		if s.Flow != "" {
			args["flow"] = s.Flow
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: pid, TID: tid, Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span file %s: %w", path, err)
	}
	return nil
}

// tracedAPI decorates a socket interface with a virtual-clock span
// around every call. It never calls into the wrapped implementation on
// its own account (GetSockName is an RPC on the server architecture and
// would move the virtual clock), so a connecting socket's local port
// reads 0 in its flow; the accepting side's span carries the full tuple.
type tracedAPI struct {
	socketapi.API
	log    *spanLog
	parent int
	ip     wire.IPAddr
	socks  map[int]*sockInfo
}

type sockInfo struct {
	proto  string
	local  uint16
	remote socketapi.SockAddr
}

func traceAPI(inner socketapi.API, log *spanLog, parent int, ip wire.IPAddr) socketapi.API {
	if log == nil {
		return inner
	}
	return &tracedAPI{API: inner, log: log, parent: parent, ip: ip, socks: make(map[int]*sockInfo)}
}

func (a *tracedAPI) flow(fd int) string {
	s := a.socks[fd]
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%s %v:%d>%v", s.proto, a.ip, s.local, s.remote)
}

func (a *tracedAPI) call(t *sim.Proc, name string, fd int, fn func()) {
	id := a.log.begin(a.parent, "socketapi", name, clockVirt, int64(t.Now()))
	fn()
	a.log.end(id, int64(t.Now()), a.flow(fd))
}

func (a *tracedAPI) Socket(t *sim.Proc, typ int) (fd int, err error) {
	a.call(t, "socket", -1, func() { fd, err = a.API.Socket(t, typ) })
	if err == nil {
		proto := "tcp"
		if typ == socketapi.SockDgram {
			proto = "udp"
		}
		a.socks[fd] = &sockInfo{proto: proto}
	}
	return
}

func (a *tracedAPI) Bind(t *sim.Proc, fd int, addr socketapi.SockAddr) (err error) {
	if s := a.socks[fd]; s != nil {
		s.local = addr.Port
	}
	a.call(t, "bind", fd, func() { err = a.API.Bind(t, fd, addr) })
	return
}

func (a *tracedAPI) Connect(t *sim.Proc, fd int, addr socketapi.SockAddr) (err error) {
	if s := a.socks[fd]; s != nil {
		s.remote = addr
	}
	a.call(t, "connect", fd, func() { err = a.API.Connect(t, fd, addr) })
	return
}

func (a *tracedAPI) Accept(t *sim.Proc, fd int) (nfd int, peer socketapi.SockAddr, err error) {
	id := a.log.begin(a.parent, "socketapi", "accept", clockVirt, int64(t.Now()))
	nfd, peer, err = a.API.Accept(t, fd)
	if err == nil {
		info := &sockInfo{proto: "tcp", remote: peer}
		if ls := a.socks[fd]; ls != nil {
			info.local = ls.local
		}
		a.socks[nfd] = info
	}
	a.log.end(id, int64(t.Now()), a.flow(nfd))
	return
}

func (a *tracedAPI) Send(t *sim.Proc, fd int, b []byte, flags int) (n int, err error) {
	a.call(t, "send", fd, func() { n, err = a.API.Send(t, fd, b, flags) })
	return
}

func (a *tracedAPI) SendTo(t *sim.Proc, fd int, b []byte, flags int, to socketapi.SockAddr) (n int, err error) {
	a.call(t, "send", fd, func() { n, err = a.API.SendTo(t, fd, b, flags, to) })
	return
}

func (a *tracedAPI) Recv(t *sim.Proc, fd int, b []byte, flags int) (n int, err error) {
	a.call(t, "recv", fd, func() { n, err = a.API.Recv(t, fd, b, flags) })
	return
}

func (a *tracedAPI) RecvFrom(t *sim.Proc, fd int, b []byte, flags int) (n int, from socketapi.SockAddr, err error) {
	a.call(t, "recv", fd, func() { n, from, err = a.API.RecvFrom(t, fd, b, flags) })
	return
}

func (a *tracedAPI) Close(t *sim.Proc, fd int) (err error) {
	a.call(t, "close", fd, func() { err = a.API.Close(t, fd) })
	delete(a.socks, fd)
	return
}

// The optional interfaces are forwarded so NEWAPI and chain workloads
// keep working through the decorator. The assertions hold for every
// architecture in this repository.

func (a *tracedAPI) SendZC(t *sim.Proc, fd int, b []byte, flags int) (n int, err error) {
	a.call(t, "send", fd, func() { n, err = a.API.(socketapi.ZeroCopyAPI).SendZC(t, fd, b, flags) })
	return
}

func (a *tracedAPI) RecvZC(t *sim.Proc, fd int, max int, flags int) (b []byte, from socketapi.SockAddr, err error) {
	a.call(t, "recv", fd, func() { b, from, err = a.API.(socketapi.ZeroCopyAPI).RecvZC(t, fd, max, flags) })
	return
}

func (a *tracedAPI) SendChain(t *sim.Proc, fd int, c *mbuf.Chain, flags int) (n int, err error) {
	a.call(t, "send", fd, func() { n, err = a.API.(socketapi.ChainAPI).SendChain(t, fd, c, flags) })
	return
}

func (a *tracedAPI) RecvPeek(t *sim.Proc, fd int, max int, ranges []socketapi.Range) (v socketapi.RecvView, err error) {
	a.call(t, "recv", fd, func() { v, err = a.API.(socketapi.ChainAPI).RecvPeek(t, fd, max, ranges) })
	return
}

func (a *tracedAPI) RecvRelease(t *sim.Proc, fd int, n int) (err error) {
	a.call(t, "recv-release", fd, func() { err = a.API.(socketapi.ChainAPI).RecvRelease(t, fd, n) })
	return
}

func (a *tracedAPI) Splice(t *sim.Proc, dstFD, srcFD int, n int) (moved int, err error) {
	a.call(t, "splice", srcFD, func() { moved, err = a.API.(socketapi.ChainAPI).Splice(t, dstFD, srcFD, n) })
	return
}
