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
// calls a connection makes over and over — send, recv, RecvRelease,
// Splice, Shutdown and GetSockOpt — cross with a dataCall record taken
// from the place and handed back, so the crossed arm allocates nothing
// either; the calls that name, open and close sessions run once per
// connection and cross with a closure.

// dataCall is one crossed data call: the stack call it makes, the
// arguments that go over and the results that come back. The stack call
// is a method expression, and run, the method value that makes it, is
// bound once when the record is made, so a crossing builds no closure.
// Records circulate through their Place's calls, a sim.Free: two threads
// of a process, or a forked child sharing an entry, can be inside
// crossings on one place at once, and each holds a record of its own.
// A record put back twice panics under the race detector.
type dataCall struct {
	do    func(c *dataCall, on *sim.Proc)
	e     *Entry
	src   *Entry // Splice's source
	b     []byte
	iov   [][]byte
	ch    *mbuf.Chain
	flags int                 // Shutdown's how, GetSockOpt's option
	to    *socketapi.SockAddr // &dst, or nil
	dst   socketapi.SockAddr
	zc    bool
	n     int // the result; on the way in, the bytes RecvRelease and Splice ask for
	from  socketapi.SockAddr
	err   error
	run   func(on *sim.Proc)
}

func (c *dataCall) exec(on *sim.Proc) { c.do(c, on) }

func (c *dataCall) send(on *sim.Proc) {
	c.n, c.err = c.e.sosend(on, c.b, c.iov, c.ch, c.flags, c.to, c.zc)
}
func (c *dataCall) recv(on *sim.Proc)     { c.n, c.from, c.err = c.e.soreceive(on, c.b, c.flags) }
func (c *dataCall) release(on *sim.Proc)  { c.err = c.e.At.St.RecvRelease(on, c.e.Sock, c.n) }
func (c *dataCall) splice(on *sim.Proc)   { c.n, c.err = c.e.At.St.Splice(on, c.e.Sock, c.src.Sock, c.n) }
func (c *dataCall) shutdown(on *sim.Proc) { c.err = c.e.At.St.Shutdown(on, c.e.Sock, c.flags) }
func (c *dataCall) getOpt(*sim.Proc)      { c.n, c.err = c.e.At.St.GetOption(c.e.Sock, c.flags) }

// getCall takes a record for the crossed call do on e.
func (p *Place) getCall(do func(*dataCall, *sim.Proc), e *Entry) *dataCall {
	c := p.calls.Get()
	if c == nil {
		c = new(dataCall)
		c.run = c.exec
	}
	c.do, c.e = do, e
	return c
}

// crossCall makes c's call across the crossing, hands the record back
// and returns its results.
func (p *Place) crossCall(t *sim.Proc, marshalled int, c *dataCall) (int, socketapi.SockAddr, error) {
	p.Cross(t, marshalled, c.run)
	n, from, err := c.n, c.from, c.err
	*c = dataCall{run: c.run}
	p.calls.Put(c)
	return n, from, err
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
// and the boundary-copy SendChain. The data is the chain ch, copied in
// (it loses the bytes it queues), or the gather list iov, or the single
// buffer b when both are nil.
func (e *Entry) send(t *sim.Proc, b []byte, iov [][]byte, ch *mbuf.Chain, flags int, to *socketapi.SockAddr, zc bool) (int, error) {
	if e.At.Cross != nil {
		c := e.At.getCall((*dataCall).send, e)
		c.b, c.iov, c.ch, c.flags, c.zc = b, iov, ch, flags, zc
		if to != nil {
			c.dst = *to
			c.to = &c.dst
		}
		n := len(b)
		for _, v := range iov {
			n += len(v)
		}
		if ch != nil {
			n += ch.Len()
		}
		n, _, err := e.At.crossCall(t, n, c)
		return n, err
	}
	n, err := e.sosend(t, b, iov, ch, flags, to, zc)
	if err == stack.ErrMoved { // the session moved while the call waited: the rest goes where it went
		if ch == nil { // a chain holds only the rest already
			b, iov = unsent(b, iov, n)
		}
		m, err := e.send(t, b, iov, ch, flags, to, zc)
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
func (e *Entry) sosend(on *sim.Proc, b []byte, iov [][]byte, ch *mbuf.Chain, flags int, to *socketapi.SockAddr, zc bool) (int, error) {
	opts := stack.SendOpts{OOB: flags&socketapi.MsgOOB != 0, ZeroCopy: zc}
	if to != nil {
		opts.To = &stack.Addr{IP: to.Addr, Port: to.Port}
	}
	if ch != nil {
		return e.At.St.SendChainCopy(on, e.Sock, ch, opts)
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
	return e.send(t, b, nil, nil, flags, nil, false)
}

// SendTo implements socketapi.API.
func (tb *Table) SendTo(t *sim.Proc, fd int, b []byte, flags int, to socketapi.SockAddr) (int, error) {
	e, err := tb.live(t, fd)
	if err != nil {
		return 0, err
	}
	return e.send(t, b, nil, nil, flags, &to, false)
}

// SendMsg implements socketapi.API.
func (tb *Table) SendMsg(t *sim.Proc, fd int, iov [][]byte, flags int, to *socketapi.SockAddr) (int, error) {
	e, err := tb.live(t, fd)
	if err != nil {
		return 0, err
	}
	return e.send(t, nil, iov, nil, flags, to, false)
}

// recv is the one implementation behind Recv, RecvFrom, RecvMsg and the
// boundary-copy RecvZC and RecvPeek. Across a crossing the far side
// fills the caller's buffer directly; the copies that stands for are
// priced by the profile.
func (e *Entry) recv(t *sim.Proc, b []byte, flags int) (int, socketapi.SockAddr, error) {
	if e.At.Cross != nil {
		c := e.At.getCall((*dataCall).recv, e)
		c.b, c.flags = b, flags
		return e.At.crossCall(t, 32, c)
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
	if e.At.Cross != nil {
		c := e.At.getCall((*dataCall).shutdown, e)
		c.flags = how
		_, _, err := e.At.crossCall(t, 16, c)
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
	if e.At.Cross != nil {
		c := e.At.getCall((*dataCall).getOpt, e)
		c.flags = opt
		n, _, err := e.At.crossCall(t, 16, c)
		return n, err
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
	return e.send(t, b, nil, nil, flags, nil, e.At.Alias)
}

// RecvZC implements socketapi.ZeroCopyAPI: the stack fills the
// entry's view buffer directly where buffers can be shared, recv fills
// it across a boundary. The call takes the buffer out of the entry while
// it runs, so another RecvZC in flight on the entry (a sibling thread, a
// forked child) fills a buffer of its own, and puts it back for the
// next; of two in flight, the one that returns last leaves its buffer.
func (tb *Table) RecvZC(t *sim.Proc, fd int, max int, flags int) ([]byte, socketapi.SockAddr, error) {
	e, err := tb.live(t, fd)
	if err != nil {
		return nil, socketapi.SockAddr{}, err
	}
	buf := e.zc
	if buf == nil {
		buf = new([]byte)
	}
	e.zc = nil
	view, from, err := e.recvZC(t, *buf, max, flags)
	if cap(view) > cap(*buf) { // grown
		*buf = view
	}
	e.zc = buf
	return view, from, err
}

// recvZC is one NEWAPI receive into buf, grown if it is too short.
func (e *Entry) recvZC(t *sim.Proc, buf []byte, max int, flags int) ([]byte, socketapi.SockAddr, error) {
	if e.At.Alias {
		_, from, view, err := e.At.St.Recv(t, e.Sock, buf[:0], stack.RecvOpts{ZeroCopy: true, Max: max, OOB: flags&socketapi.MsgOOB != 0})
		if err != stack.ErrMoved { // else the session moved while the call waited
			return view, FromStack(from), err
		}
	}
	max, err := e.recvMax(t, max)
	if err != nil {
		return nil, socketapi.SockAddr{}, err
	}
	if cap(buf) < max {
		buf = make([]byte, max)
	}
	n, from, err := e.recv(t, buf[:max], flags)
	return buf[:n], from, err
}

// recvMax is the size of a boundary-copy receive: max, where max <= 0
// means everything that can be queued, so SO_RCVBUF bytes.
func (e *Entry) recvMax(t *sim.Proc, max int) (int, error) {
	if max > 0 {
		return max, nil
	}
	return e.getOpt(t, socketapi.SoRcvBuf)
}

// SendChain implements socketapi.ChainAPI. Sharing the stack's address
// space, the chain is surrendered by reference. Across a boundary the
// chain crosses itself and the stack copies its segments in, one at a
// time — the usual copyin with scatter-gather framing. Either way the
// chain is released, on every return.
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
	n, err := e.send(t, nil, nil, c, flags, nil, false)
	c.Release()
	return n, err
}

// RecvPeek implements socketapi.ChainAPI. Sharing the stack's address
// space, the view aliases the receive queue and only the declared
// ranges are copied. Across a boundary the peeked bytes are copied out
// (the same copy the BSD path pays) into pooled mbuf storage that the
// view alone holds, so it outlives RecvRelease and goes back to the
// pools with the view, and the ranges are sliced from it: Libra-style
// selective copying emulated with identical semantics.
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
	max, err = e.recvMax(t, max)
	if err != nil {
		return socketapi.RecvView{}, err
	}
	f := mbuf.Frame(max)
	n, from, err := e.recv(t, f, socketapi.MsgPeek)
	if err != nil {
		mbuf.Free(f)
		return socketapi.RecvView{}, err
	}
	view := mbuf.New()
	if n > 0 {
		view.Adopt(f[:n])
	} else {
		mbuf.Free(f) // end of stream
	}
	return socketapi.RecvView{Chain: view, Copied: socketapi.MaterializeRanges(view, ranges), From: from}, nil
}

// RecvRelease implements socketapi.ChainAPI: consuming queued bytes
// happens beside the stack; no data crosses back.
func (tb *Table) RecvRelease(t *sim.Proc, fd int, n int) error {
	e, err := tb.live(t, fd)
	if err != nil {
		return err
	}
	if e.At.Cross != nil {
		c := e.At.getCall((*dataCall).release, e)
		c.n = n
		_, _, err := e.At.crossCall(t, 16, c)
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
	if de.At.Cross != nil {
		c := de.At.getCall((*dataCall).splice, de)
		c.src, c.n = se, n
		n, _, err := de.At.crossCall(t, 32, c)
		return n, err
	}
	return de.At.St.Splice(t, de.Sock, se.Sock, n)
}
