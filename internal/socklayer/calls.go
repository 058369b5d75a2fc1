package socklayer

import (
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/stack"
)

// Every call below has the same shape: find the entry, then run the
// stack operation — directly on the calling thread, or inside the
// entry's crossing. The direct arm must stay free of closures and of
// variables a closure captures by reference (each would be a heap
// allocation per socket call on the kernel and library columns). The
// data calls, send and recv, cross with a dataCall record taken from
// the place and handed back, so the crossed arm allocates nothing
// either; the calls that name, open and close sessions run once per
// connection and cross with a closure.

// dataCall is one crossed send or recv: the arguments that go over and
// the results that come back. Its two bodies are bound as method values
// once, when the record is made, so a crossing builds no closure.
// Records circulate through their Place's calls, a sim.Free: two threads
// of a process, or a forked child sharing an entry, can be inside
// crossings on one place at once, and each holds a record of its own.
// A record put back twice panics under the race detector.
type dataCall struct {
	e          *Entry
	b          []byte
	iov        [][]byte
	flags      int
	to         *socketapi.SockAddr // &dst, or nil
	dst        socketapi.SockAddr
	zc         bool
	n          int
	from       socketapi.SockAddr
	err        error
	send, recv func(on *sim.Proc)
}

func (c *dataCall) runSend(on *sim.Proc) {
	c.n, c.err = c.e.sosend(on, c.b, c.iov, c.flags, c.to, c.zc)
}

func (c *dataCall) runRecv(on *sim.Proc) {
	c.n, c.from, c.err = c.e.soreceive(on, c.b, c.flags)
}

// getCall takes a record for a crossed call on e.
func (p *Place) getCall(e *Entry) *dataCall {
	c := p.calls.Get()
	if c == nil {
		c = new(dataCall)
		c.send, c.recv = c.runSend, c.runRecv
	}
	c.e = e
	return c
}

// putCall drops what the record refers to and hands it back.
func (p *Place) putCall(c *dataCall) {
	*c = dataCall{send: c.send, recv: c.recv}
	p.calls.Put(c)
}

// Socket implements socketapi.API.
func (tb *Table) Socket(t *sim.Proc, typ int) (int, error) {
	proto, err := Proto(typ)
	if err != nil {
		return -1, err
	}
	at := tb.Home
	if at.Cross != nil {
		var s *stack.Socket
		at.Cross(t, 16, func(*sim.Proc) { s = at.Ctl.NewSocket(proto) })
		return tb.Install(&Entry{Sock: s, At: at}), nil
	}
	return tb.Install(&Entry{Sock: at.Ctl.NewSocket(proto), At: at}), nil
}

// Bind implements socketapi.API.
func (tb *Table) Bind(t *sim.Proc, fd int, addr socketapi.SockAddr) error {
	e, err := tb.Lookup(fd)
	if err != nil {
		return err
	}
	if cross := e.At.Cross; cross != nil {
		var err error
		cross(t, 32, func(*sim.Proc) { err = e.At.Ctl.Bind(e.Sock, ToStack(addr)) })
		return err
	}
	return e.At.Ctl.Bind(e.Sock, ToStack(addr))
}

// Connect implements socketapi.API.
func (tb *Table) Connect(t *sim.Proc, fd int, addr socketapi.SockAddr) error {
	e, err := tb.Lookup(fd)
	if err != nil {
		return err
	}
	if cross := e.At.Cross; cross != nil {
		var err error
		cross(t, 32, func(on *sim.Proc) { err = e.At.Ctl.Connect(on, e.Sock, ToStack(addr)) })
		return err
	}
	return e.At.Ctl.Connect(t, e.Sock, ToStack(addr))
}

// Listen implements socketapi.API.
func (tb *Table) Listen(t *sim.Proc, fd int, backlog int) error {
	e, err := tb.Lookup(fd)
	if err != nil {
		return err
	}
	if cross := e.At.Cross; cross != nil {
		var err error
		cross(t, 16, func(*sim.Proc) { err = e.At.Ctl.Listen(e.Sock, backlog) })
		return err
	}
	return e.At.Ctl.Listen(e.Sock, backlog)
}

// Accept implements socketapi.API: the new connection's descriptor
// lives where its listener does.
func (tb *Table) Accept(t *sim.Proc, fd int) (int, socketapi.SockAddr, error) {
	e, err := tb.Lookup(fd)
	if err != nil {
		return -1, socketapi.SockAddr{}, err
	}
	var ns *stack.Socket
	if cross := e.At.Cross; cross != nil {
		var r struct {
			ns  *stack.Socket
			err error
		}
		cross(t, 16, func(on *sim.Proc) { r.ns, r.err = e.At.Ctl.Accept(on, e.Sock) })
		ns, err = r.ns, r.err
	} else {
		ns, err = e.At.Ctl.Accept(t, e.Sock)
	}
	if err != nil {
		return -1, socketapi.SockAddr{}, err
	}
	return tb.Install(&Entry{Sock: ns, At: e.At}), FromStack(ns.RemoteAddr()), nil
}

// send is the one implementation behind Send, SendTo, SendMsg, SendZC
// and the boundary-copy SendChain. The data is the gather list iov, or
// the single buffer b when iov is nil.
func (e *Entry) send(t *sim.Proc, b []byte, iov [][]byte, flags int, to *socketapi.SockAddr, zc bool) (int, error) {
	if cross := e.At.Cross; cross != nil {
		c := e.At.getCall(e)
		c.b, c.iov, c.flags, c.zc = b, iov, flags, zc
		if to != nil {
			c.dst = *to
			c.to = &c.dst
		}
		n := len(b)
		for _, v := range iov {
			n += len(v)
		}
		cross(t, n, c.send)
		n, err := c.n, c.err
		e.At.putCall(c)
		return n, err
	}
	n, err := e.sosend(t, b, iov, flags, to, zc)
	if err == stack.ErrMoved { // the session moved while the call waited: the rest goes where it went
		b, iov = unsent(b, iov, n)
		m, err := e.send(t, b, iov, flags, to, zc)
		return n + m, err
	}
	return n, err
}

// unsent drops the first n bytes of the data b or iov holds, fewer
// than all of them.
func unsent(b []byte, iov [][]byte, n int) ([]byte, [][]byte) {
	if iov == nil {
		return b[n:], nil
	}
	for ; n >= len(iov[0]); iov = iov[1:] {
		n -= len(iov[0])
	}
	return nil, append([][]byte{iov[0][n:]}, iov[1:]...)
}

// sosend decodes flags and destination and runs the stack's send on the
// thread it is given.
func (e *Entry) sosend(on *sim.Proc, b []byte, iov [][]byte, flags int, to *socketapi.SockAddr, zc bool) (int, error) {
	opts := stack.SendOpts{OOB: flags&socketapi.MsgOOB != 0, ZeroCopy: zc}
	if to != nil {
		opts.To = &stack.Addr{IP: to.Addr, Port: to.Port}
	}
	if iov == nil {
		iov = [][]byte{b}
	}
	return e.At.St.Send(on, e.Sock, iov, opts)
}

// Send implements socketapi.API.
func (tb *Table) Send(t *sim.Proc, fd int, b []byte, flags int) (int, error) {
	e, err := tb.live(t, fd)
	if err != nil {
		return 0, err
	}
	return e.send(t, b, nil, flags, nil, false)
}

// SendTo implements socketapi.API.
func (tb *Table) SendTo(t *sim.Proc, fd int, b []byte, flags int, to socketapi.SockAddr) (int, error) {
	e, err := tb.live(t, fd)
	if err != nil {
		return 0, err
	}
	return e.send(t, b, nil, flags, &to, false)
}

// SendMsg implements socketapi.API.
func (tb *Table) SendMsg(t *sim.Proc, fd int, iov [][]byte, flags int, to *socketapi.SockAddr) (int, error) {
	e, err := tb.live(t, fd)
	if err != nil {
		return 0, err
	}
	return e.send(t, nil, iov, flags, to, false)
}

// recv is the one implementation behind Recv, RecvFrom, RecvMsg and the
// boundary-copy RecvZC and RecvPeek. Across a crossing the far side
// fills the caller's buffer directly; the copies that stands for are
// priced by the profile.
func (e *Entry) recv(t *sim.Proc, b []byte, flags int) (int, socketapi.SockAddr, error) {
	if cross := e.At.Cross; cross != nil {
		c := e.At.getCall(e)
		c.b, c.flags = b, flags
		cross(t, 32, c.recv)
		n, from, err := c.n, c.from, c.err
		e.At.putCall(c)
		return n, from, err
	}
	n, from, err := e.soreceive(t, b, flags)
	if err == stack.ErrMoved { // the session moved while the call waited
		return e.recv(t, b, flags)
	}
	return n, from, err
}

func (e *Entry) soreceive(on *sim.Proc, b []byte, flags int) (int, socketapi.SockAddr, error) {
	opts := stack.RecvOpts{OOB: flags&socketapi.MsgOOB != 0, Peek: flags&socketapi.MsgPeek != 0}
	n, from, _, err := e.At.St.Recv(on, e.Sock, b, opts)
	return n, FromStack(from), err
}

// Recv implements socketapi.API.
func (tb *Table) Recv(t *sim.Proc, fd int, b []byte, flags int) (int, error) {
	n, _, err := tb.RecvFrom(t, fd, b, flags)
	return n, err
}

// RecvFrom implements socketapi.API.
func (tb *Table) RecvFrom(t *sim.Proc, fd int, b []byte, flags int) (int, socketapi.SockAddr, error) {
	e, err := tb.live(t, fd)
	if err != nil {
		return 0, socketapi.SockAddr{}, err
	}
	return e.recv(t, b, flags)
}

// RecvMsg implements socketapi.API. Like BSD's single soreceive, it is
// one receive of as many bytes as the scatter list holds, laid over the
// buffers in order: one datagram, one peek, one wait for data.
func (tb *Table) RecvMsg(t *sim.Proc, fd int, iov [][]byte, flags int) (int, socketapi.SockAddr, error) {
	e, err := tb.live(t, fd)
	if err != nil {
		return 0, socketapi.SockAddr{}, err
	}
	size := 0
	for _, b := range iov {
		size += len(b)
	}
	buf := make([]byte, size)
	n, from, err := e.recv(t, buf, flags)
	for rest := buf[:n]; len(rest) > 0; iov = iov[1:] {
		rest = rest[copy(iov[0], rest):]
	}
	return n, from, err
}

// Shutdown implements socketapi.API.
func (tb *Table) Shutdown(t *sim.Proc, fd int, how int) error {
	e, err := tb.live(t, fd)
	if err != nil {
		return err
	}
	if cross := e.At.Cross; cross != nil {
		var err error
		cross(t, 16, func(on *sim.Proc) { err = e.At.St.Shutdown(on, e.Sock, how) })
		return err
	}
	return e.At.St.Shutdown(t, e.Sock, how)
}

// SetSockOpt implements socketapi.API.
func (tb *Table) SetSockOpt(t *sim.Proc, fd int, opt, value int) error {
	e, err := tb.Lookup(fd)
	if err != nil {
		return err
	}
	if cross := e.At.Cross; cross != nil {
		var err error
		cross(t, 16, func(*sim.Proc) { err = e.At.St.SetOption(e.Sock, opt, value) })
		return err
	}
	return e.At.St.SetOption(e.Sock, opt, value)
}

// GetSockOpt implements socketapi.API.
func (tb *Table) GetSockOpt(t *sim.Proc, fd int, opt int) (int, error) {
	e, err := tb.Lookup(fd)
	if err != nil {
		return 0, err
	}
	return e.getOpt(t, opt)
}

func (e *Entry) getOpt(t *sim.Proc, opt int) (int, error) {
	if cross := e.At.Cross; cross != nil {
		var r struct {
			v   int
			err error
		}
		cross(t, 16, func(*sim.Proc) { r.v, r.err = e.At.St.GetOption(e.Sock, opt) })
		return r.v, r.err
	}
	return e.At.St.GetOption(e.Sock, opt)
}

// GetSockName implements socketapi.API: the name as bound — INADDR_ANY
// until a connect fixes the local address, as BSD reports it.
func (tb *Table) GetSockName(t *sim.Proc, fd int) (socketapi.SockAddr, error) {
	e, err := tb.Lookup(fd)
	if err != nil {
		return socketapi.SockAddr{}, err
	}
	return FromStack(e.addr(t, (*stack.Socket).LocalAddr)), nil
}

// GetPeerName implements socketapi.API.
func (tb *Table) GetPeerName(t *sim.Proc, fd int) (socketapi.SockAddr, error) {
	e, err := tb.Lookup(fd)
	if err != nil {
		return socketapi.SockAddr{}, err
	}
	if e.Sock == nil { // a bare record was never connected
		return socketapi.SockAddr{}, socketapi.ErrNotConn
	}
	a := e.addr(t, (*stack.Socket).RemoteAddr)
	if a.IsZero() {
		return socketapi.SockAddr{}, socketapi.ErrNotConn
	}
	return FromStack(a), nil
}

// addr reads one of the socket's endpoint names where the socket lives.
func (e *Entry) addr(t *sim.Proc, get func(*stack.Socket) stack.Addr) stack.Addr {
	if cross := e.At.Cross; cross != nil {
		var a stack.Addr
		cross(t, 16, func(*sim.Proc) { a = get(e.Sock) })
		return a
	}
	return get(e.Sock)
}

// SendZC implements socketapi.ZeroCopyAPI (the paper's §4.2 NEWAPI):
// where the caller shares the stack's address space the protocol
// references b instead of copying it; across a boundary this is Send.
func (tb *Table) SendZC(t *sim.Proc, fd int, b []byte, flags int) (int, error) {
	e, err := tb.live(t, fd)
	if err != nil {
		return 0, err
	}
	return e.send(t, b, nil, flags, nil, e.At.Alias)
}

// RecvZC implements socketapi.ZeroCopyAPI: a protocol-owned view where
// buffers can be shared, otherwise a fresh buffer filled by RecvFrom.
func (tb *Table) RecvZC(t *sim.Proc, fd int, max int, flags int) ([]byte, socketapi.SockAddr, error) {
	e, err := tb.live(t, fd)
	if err != nil {
		return nil, socketapi.SockAddr{}, err
	}
	if e.At.Alias {
		_, from, view, err := e.At.St.Recv(t, e.Sock, nil, stack.RecvOpts{ZeroCopy: true, Max: max, OOB: flags&socketapi.MsgOOB != 0})
		if err != stack.ErrMoved { // else the session moved while the call waited
			return view, FromStack(from), err
		}
	}
	return e.recvFresh(t, max, flags)
}

// recvFresh is the boundary-copy receive behind RecvZC and RecvPeek: a
// fresh buffer of max bytes — max <= 0 means everything that can be
// queued, so SO_RCVBUF bytes — filled by recv.
func (e *Entry) recvFresh(t *sim.Proc, max int, flags int) ([]byte, socketapi.SockAddr, error) {
	if max <= 0 {
		var err error
		if max, err = e.getOpt(t, socketapi.SoRcvBuf); err != nil {
			return nil, socketapi.SockAddr{}, err
		}
	}
	buf := make([]byte, max)
	n, from, err := e.recv(t, buf, flags)
	return buf[:n], from, err
}

// SendChain implements socketapi.ChainAPI. Sharing the stack's address
// space, the chain is surrendered by reference. Across a boundary its
// segments cross as a gather list and the socket layer copies them —
// the usual copyin with scatter-gather framing. Either way the chain is
// released, on every return.
func (tb *Table) SendChain(t *sim.Proc, fd int, c *mbuf.Chain, flags int) (int, error) {
	if c == nil {
		c = mbuf.New()
	}
	e, err := tb.live(t, fd)
	if err != nil {
		c.Release()
		return 0, err
	}
	if e.At.Alias {
		n, err := e.At.St.SendChain(t, e.Sock, c, stack.SendOpts{OOB: flags&socketapi.MsgOOB != 0})
		if err == stack.ErrMoved { // the session moved while the call waited: c holds the rest
			m, err := tb.SendChain(t, fd, c, flags)
			return n + m, err
		}
		return n, err
	}
	iov := make([][]byte, 0, c.Segments())
	for it := c.Iter(); ; {
		b, ok := it.Next()
		if !ok {
			break
		}
		iov = append(iov, b)
	}
	n, err := e.send(t, nil, iov, flags, nil, false)
	c.Release()
	return n, err
}

// RecvPeek implements socketapi.ChainAPI. Sharing the stack's address
// space, the view aliases the receive queue and only the declared
// ranges are copied. Across a boundary the peeked bytes are copied out
// (the same copy the BSD path pays) into a private view that outlives
// RecvRelease, and the ranges are sliced from it: Libra-style selective
// copying emulated with identical semantics.
func (tb *Table) RecvPeek(t *sim.Proc, fd int, max int, ranges []socketapi.Range) (socketapi.RecvView, error) {
	e, err := tb.live(t, fd)
	if err != nil {
		return socketapi.RecvView{}, err
	}
	if e.At.Alias {
		view, copied, from, err := e.At.St.RecvPeek(t, e.Sock, max, ranges)
		if err == stack.ErrMoved { // the session moved while the call waited
			return tb.RecvPeek(t, fd, max, ranges)
		}
		if err != nil {
			return socketapi.RecvView{}, err
		}
		return socketapi.RecvView{Chain: view, Copied: copied, From: FromStack(from)}, nil
	}
	buf, from, err := e.recvFresh(t, max, socketapi.MsgPeek)
	if err != nil {
		return socketapi.RecvView{}, err
	}
	view := mbuf.FromBytes(buf)
	return socketapi.RecvView{Chain: view, Copied: socketapi.MaterializeRanges(view, ranges), From: from}, nil
}

// RecvRelease implements socketapi.ChainAPI: consuming queued bytes
// happens beside the stack; no data crosses back.
func (tb *Table) RecvRelease(t *sim.Proc, fd int, n int) error {
	e, err := tb.live(t, fd)
	if err != nil {
		return err
	}
	if cross := e.At.Cross; cross != nil {
		var err error
		cross(t, 16, func(on *sim.Proc) { err = e.At.St.RecvRelease(on, e.Sock, n) })
		return err
	}
	return e.At.St.RecvRelease(t, e.Sock, n)
}

// Splice implements socketapi.ChainAPI: both sockets live on one stack,
// so the pump runs entirely beside it (sendfile for two sockets) and
// forwarded payload is never copied to — or mapped into — the caller.
func (tb *Table) Splice(t *sim.Proc, dstFD, srcFD int, n int) (int, error) {
	de, err := tb.live(t, dstFD)
	if err != nil {
		return 0, err
	}
	se, err := tb.live(t, srcFD)
	if err != nil {
		return 0, err
	}
	if de.At != se.At {
		return 0, socketapi.ErrNotSupported
	}
	if cross := de.At.Cross; cross != nil {
		var r struct {
			n   int
			err error
		}
		cross(t, 32, func(on *sim.Proc) { r.n, r.err = de.At.St.Splice(on, de.Sock, se.Sock, n) })
		return r.n, r.err
	}
	return de.At.St.Splice(t, de.Sock, se.Sock, n)
}
