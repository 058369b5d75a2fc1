package stack

import (
	"repro/internal/costs"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/wire"
)

// Socket is a protocol endpoint plus its socket-layer state: BSD's
// struct socket. TCP sockets own a tcpcb; UDP sockets own a datagram
// receive queue.
type Socket struct {
	st    *Stack
	uid   uint64 // creation order, for deterministic timer iteration
	Proto uint8

	local, remote Addr
	portReserved  bool

	// TCP.
	tcb           *tcpcb
	snd, rcv      *streamBuf
	oob           []byte // out-of-band byte(s), kept out of line as BSD does without OOBINLINE
	listenQ       []*Socket
	listenBacklog int
	listener      *Socket // set on sockets spawned by a listener

	// UDP.
	drcv *dgramBuf

	sndbufSize, rcvbufSize int
	noDelay                bool
	reuseAddr              bool
	keepAlive              bool

	// Chain-API accounting (psdstat -s surfaces these per socket).
	splicedBytes int64 // bytes moved through Splice, as source or sink
	zcRxBytes    int64 // bytes returned as RecvPeek aliased views
	selCopyBytes int64 // bytes materialized by CopyRanges specs

	err               error // so_error: async errors delivered to the next call
	rdShut, wrShut    bool
	closed            bool
	accepting         sim.Cond
	stateChanged      sim.Cond // connect()/close() progress
	migratedElsewhere bool     // session currently managed by another stack

	// Notify, when set, is invoked (in whatever thread caused the change)
	// whenever the socket becomes readable/writable or its state changes.
	// The decomposed architecture uses it for the cooperative select
	// machinery (proxy_status); it must not block.
	Notify func()
}

// NewSocket creates an unbound socket for proto (wire.ProtoTCP or
// wire.ProtoUDP).
func (st *Stack) NewSocket(proto uint8) *Socket {
	st.sockSeq++
	s := &Socket{
		st:         st,
		uid:        st.sockSeq,
		Proto:      proto,
		sndbufSize: st.cfg.SndBuf,
		rcvbufSize: st.cfg.RcvBuf,
	}
	switch proto {
	case wire.ProtoTCP:
		s.snd = newStreamBuf(s.sndbufSize)
		s.rcv = newStreamBuf(s.rcvbufSize)
	case wire.ProtoUDP:
		s.drcv = newDgramBuf(s.rcvbufSize)
	}
	return s
}

// LocalAddr returns the bound local endpoint.
func (s *Socket) LocalAddr() Addr { return s.local }

// RemoteAddr returns the connected remote endpoint.
func (s *Socket) RemoteAddr() Addr { return s.remote }

// Err returns and clears the pending asynchronous error (so_error).
func (s *Socket) takeErr() error {
	e := s.err
	s.err = nil
	return e
}

func (s *Socket) notify() {
	if s.Notify != nil {
		s.Notify()
	}
}

// sorwakeup wakes readers after data (or EOF/error) arrives. The waker
// pays the wakeup cost only if someone is actually waiting.
func (s *Socket) sorwakeup(t *sim.Proc, n int) {
	var waiters int
	if s.rcv != nil {
		waiters = s.rcv.cond.Waiters()
	}
	if s.drcv != nil {
		waiters += s.drcv.cond.Waiters()
	}
	if waiters > 0 {
		s.st.charge(t, s.Proto == wire.ProtoTCP, costs.CompWakeupUser, n)
	}
	if s.rcv != nil {
		s.rcv.cond.Broadcast()
	}
	if s.drcv != nil {
		s.drcv.cond.Broadcast()
	}
	s.notify()
}

// sowwakeup wakes writers after send-buffer space opens up.
func (s *Socket) sowwakeup(t *sim.Proc, n int) {
	if s.snd != nil && s.snd.cond.Waiters() > 0 {
		s.st.charge(t, s.Proto == wire.ProtoTCP, costs.CompWakeupUser, n)
		s.snd.cond.Broadcast()
	}
	s.notify()
}

// Bind names the socket's local endpoint. A zero port allocates an
// ephemeral port. A zero IP binds to the stack's address (single-homed
// hosts, so INADDR_ANY and the local address are interchangeable on
// output; lookup handles both).
func (st *Stack) Bind(s *Socket, addr Addr) error {
	return st.bindLocked(s, addr)
}

// bindLocked is Bind for callers already inside the protocol lock (and
// for the lock-free public path: Bind performs no yielding operations, so
// it is atomic with respect to other simulated threads either way).
func (st *Stack) bindLocked(s *Socket, addr Addr) error {
	if s.local.Port != 0 {
		return socketapi.ErrInvalid // already bound
	}
	if !addr.IP.IsZero() && addr.IP != st.cfg.LocalIP {
		return socketapi.ErrAddrNotAvail
	}
	port := addr.Port
	var err error
	if port == 0 {
		port, err = st.cfg.Ports.AllocEphemeral(s.Proto)
	} else {
		err = st.cfg.Ports.Reserve(s.Proto, port, s.reuseAddr)
	}
	if err != nil {
		return err
	}
	s.local = Addr{IP: addr.IP, Port: port}
	s.portReserved = true
	st.binds[tuple{s.Proto, s.local, Addr{}}] = s
	return nil
}

// registerConn moves a socket into the full-tuple connection map.
func (st *Stack) registerConn(s *Socket) {
	delete(st.binds, tuple{s.Proto, s.local, Addr{}})
	st.conns[tuple{s.Proto, s.local, s.remote}] = s
}

// deregister removes the socket from all demultiplexing tables and
// releases its port.
func (st *Stack) deregister(s *Socket) {
	delete(st.binds, tuple{s.Proto, s.local, Addr{}})
	if !s.remote.IsZero() {
		delete(st.conns, tuple{s.Proto, s.local, s.remote})
	}
	if s.portReserved {
		// A listener's port may be shared with its spawned connections;
		// only the reserving socket releases it.
		st.cfg.Ports.Release(s.Proto, s.local.Port)
		s.portReserved = false
	}
}

// Listen marks a bound TCP socket passive.
func (st *Stack) Listen(s *Socket, backlog int) error {
	if s.Proto != wire.ProtoTCP {
		return socketapi.ErrNotSupported
	}
	if s.local.Port == 0 || (s.tcb != nil && s.tcb.state != tcpListen) {
		return socketapi.ErrInvalid // unbound, or already connecting/connected
	}
	if backlog < 1 {
		backlog = 1
	}
	s.listenBacklog = backlog
	if s.tcb == nil {
		s.tcb = newTCPCB(st, s)
		s.tcb.setState(tcpListen)
	}
	return nil
}

// Accept blocks until an established connection is available on the
// listen queue and returns it.
func (st *Stack) Accept(t *sim.Proc, s *Socket) (*Socket, error) {
	if s.listenBacklog == 0 {
		return nil, socketapi.ErrInvalid
	}
	for len(s.listenQ) == 0 && !s.closed && s.err == nil {
		s.accepting.Wait(t)
	}
	if err := s.takeErr(); err != nil {
		return nil, err
	}
	if len(s.listenQ) == 0 {
		return nil, socketapi.ErrBadFD // closed while accepting
	}
	ns := s.listenQ[0]
	s.listenQ = s.listenQ[1:]
	return ns, nil
}

// Connect actively opens a TCP connection (blocking until established or
// failed) or sets a UDP socket's default remote endpoint.
func (st *Stack) Connect(t *sim.Proc, s *Socket, raddr Addr) error {
	if raddr.IP.IsZero() || raddr.Port == 0 {
		return socketapi.ErrInvalid
	}
	st.lock(t)
	defer st.unlock()
	if s.local.Port == 0 {
		if err := st.bindLocked(s, Addr{}); err != nil {
			return err
		}
	}
	// The bind table entry may be keyed under the wildcard IP; remove it
	// under the old key before qualifying the local address.
	delete(st.binds, tuple{s.Proto, s.local, Addr{}})
	s.local.IP = st.cfg.LocalIP
	switch s.Proto {
	case wire.ProtoUDP:
		if !s.remote.IsZero() {
			delete(st.conns, tuple{s.Proto, s.local, s.remote})
		}
		s.remote = raddr
		st.registerConn(s)
		return nil
	case wire.ProtoTCP:
		if s.tcb != nil && s.tcb.state != tcpClosed {
			return socketapi.ErrIsConn
		}
		s.remote = raddr
		st.registerConn(s)
		s.tcb = newTCPCB(st, s)
		connStart := st.now()
		if err := s.tcb.connect(t); err != nil {
			return err
		}
		// Wait for the handshake to finish.
		for s.tcb.state != tcpEstablished && s.tcb.state != tcpClosed && s.err == nil {
			st.condWait(t, &s.stateChanged)
		}
		if err := s.takeErr(); err != nil {
			st.deregister(s)
			return err
		}
		if s.tcb.state != tcpEstablished {
			st.deregister(s)
			return socketapi.ErrConnRefused
		}
		st.mConnect.Observe(int64(st.now().Sub(connStart)))
		return nil
	}
	return socketapi.ErrNotSupported
}

// SendOpts packages send-side options.
type SendOpts struct {
	// OOB marks the data urgent (MSG_OOB).
	OOB bool
	// To overrides the destination (sendto/sendmsg).
	To *Addr
	// ZeroCopy references the caller's buffer instead of copying it (the
	// paper's NEWAPI shared-buffer interface).
	ZeroCopy bool
}

// Send writes data on the socket: the implementation behind all ten BSD
// data-movement calls. iov is a gather list; for UDP it forms a single
// datagram.
func (st *Stack) Send(t *sim.Proc, s *Socket, iov [][]byte, opts SendOpts) (int, error) {
	total := 0
	for _, b := range iov {
		total += len(b)
	}
	isTCP := s.Proto == wire.ProtoTCP
	st.lock(t)
	defer st.unlock()
	if err := s.takeErr(); err != nil {
		return 0, err
	}
	if s.wrShut {
		return 0, socketapi.ErrPipe
	}
	st.charge(t, isTCP, costs.CompEntryCopyin, total)

	switch s.Proto {
	case wire.ProtoUDP:
		dst := s.remote
		if opts.To != nil {
			dst = *opts.To
		}
		if dst.IsZero() {
			return 0, socketapi.ErrNotConn
		}
		if s.local.Port == 0 {
			if err := st.bindLocked(s, Addr{}); err != nil {
				return 0, err
			}
		}
		if total > maxUDPDatagram {
			return 0, socketapi.ErrMsgSize
		}
		var payload *mbuf.Chain
		if opts.ZeroCopy {
			payload = mbuf.New()
			for _, b := range iov {
				payload.AppendChain(mbuf.FromBytes(b))
			}
			st.Stats.SockAliasedBytes.Add(uint64(total))
		} else {
			payload = mbuf.New()
			for _, b := range iov {
				payload.AppendBytes(b)
			}
			st.Stats.SockCopiedBytes.Add(uint64(total))
		}
		src := s.local
		if src.IP.IsZero() {
			src.IP = st.cfg.LocalIP
		}
		if err := st.udpOutput(t, src, dst, payload); err != nil {
			return 0, err
		}
		return total, nil

	case wire.ProtoTCP:
		tcb := s.tcb
		if tcb == nil || tcb.state < tcpEstablished {
			return 0, socketapi.ErrNotConn
		}
		sent := 0
		for _, b := range iov {
			for len(b) > 0 {
				for s.snd.space() <= 0 && s.err == nil && !s.wrShut && tcb.state >= tcpEstablished {
					st.condWait(t, &s.snd.cond)
				}
				if err := s.takeErr(); err != nil {
					return sent, err
				}
				if s.wrShut || tcb.state == tcpClosed {
					return sent, socketapi.ErrPipe
				}
				n := s.snd.space()
				if n > len(b) {
					n = len(b)
				}
				if opts.ZeroCopy {
					s.snd.appendRef(b[:n])
					st.Stats.SockAliasedBytes.Add(uint64(n))
				} else {
					s.snd.appendBytes(b[:n])
					st.Stats.SockCopiedBytes.Add(uint64(n))
				}
				if opts.OOB && n == len(b) {
					// Urgent pointer covers through the last byte written.
					tcb.sndUp = tcb.sndUna + uint32(s.snd.len())
					tcb.forceUrgent = true
				}
				b = b[n:]
				sent += n
				st.tcpOutput(t, tcb)
			}
		}
		return sent, nil
	}
	return 0, socketapi.ErrNotSupported
}

// RecvOpts packages receive-side options.
type RecvOpts struct {
	// OOB reads out-of-band data (MSG_OOB).
	OOB bool
	// Peek reads without consuming (MSG_PEEK).
	Peek bool
	// ZeroCopy returns a protocol-owned view instead of copying into the
	// caller's buffer (NEWAPI).
	ZeroCopy bool
}

// Recv reads data from the socket into p (or, for zero-copy receives,
// returns an owned view). It returns the number of bytes, the source
// address (UDP), and for TCP an n of 0 with nil error at end of stream.
func (st *Stack) Recv(t *sim.Proc, s *Socket, p []byte, opts RecvOpts) (int, Addr, []byte, error) {
	st.lock(t)
	defer st.unlock()
	isTCP := s.Proto == wire.ProtoTCP
	if opts.OOB {
		if !isTCP {
			return 0, Addr{}, nil, socketapi.ErrInvalid
		}
		for len(s.oob) == 0 && s.err == nil && !s.rdShut {
			st.condWait(t, &s.rcv.cond)
		}
		if len(s.oob) == 0 {
			if err := s.takeErr(); err != nil {
				return 0, Addr{}, nil, err
			}
			return 0, Addr{}, nil, socketapi.ErrInvalid
		}
		n := copy(p, s.oob)
		if !opts.Peek {
			s.oob = s.oob[n:]
		}
		st.charge(t, true, costs.CompCopyoutExit, n)
		return n, s.remote, nil, nil
	}

	switch s.Proto {
	case wire.ProtoUDP:
		for s.drcv.len() == 0 && len(s.drcv.q) == 0 && s.err == nil && !s.rdShut {
			st.condWait(t, &s.drcv.cond)
		}
		if err := s.takeErr(); err != nil {
			return 0, Addr{}, nil, err
		}
		var d datagram
		var ok bool
		if opts.Peek {
			d, ok = s.drcv.peek()
		} else {
			d, ok = s.drcv.dequeue()
		}
		if !ok {
			return 0, Addr{}, nil, nil // shutdown with nothing queued
		}
		if opts.ZeroCopy {
			b := d.data.Bytes()
			if !opts.Peek {
				d.data.Release()
			}
			st.Stats.SockCopiedBytes.Add(uint64(len(b))) // flattening the view is a copy
			st.charge(t, false, costs.CompCopyoutExit, len(b))
			return len(b), d.from, b, nil
		}
		n := d.data.ReadAt(p, 0)
		if !opts.Peek {
			d.data.Release() // rest of datagram is discarded, as BSD does
		}
		st.Stats.SockCopiedBytes.Add(uint64(n))
		st.charge(t, false, costs.CompCopyoutExit, n)
		return n, d.from, nil, nil

	case wire.ProtoTCP:
		tcb := s.tcb
		if tcb == nil {
			return 0, Addr{}, nil, socketapi.ErrNotConn
		}
		if ok, err := st.waitReadable(t, s); !ok {
			if err != nil {
				return 0, Addr{}, nil, err
			}
			return 0, s.remote, nil, nil // EOF
		}
		var n int
		var view []byte
		if opts.ZeroCopy {
			max := len(p)
			if max == 0 {
				max = s.rcv.len()
			}
			c := s.rcv.readChain(max)
			view = c.Bytes()
			n = len(view)
			c.Release()
			st.Stats.SockCopiedBytes.Add(uint64(n)) // flattening the view is a copy
		} else if opts.Peek {
			n = s.rcv.data.ReadAt(p, 0)
			st.Stats.SockCopiedBytes.Add(uint64(n))
		} else {
			n = s.rcv.readInto(p)
			st.Stats.SockCopiedBytes.Add(uint64(n))
		}
		if !opts.Peek {
			// Receive window opened; let the peer know if it matters.
			st.tcpOutput(t, tcb)
		}
		st.charge(t, true, costs.CompCopyoutExit, n)
		return n, s.remote, view, nil
	}
	return 0, Addr{}, nil, socketapi.ErrNotSupported
}

// waitReadable blocks until the stream socket has bytes queued or never
// will. With nothing queued it reports why: the pending error, ENOTCONN
// for a connection that died with no error left to report (a refused
// connect whose ECONNREFUSED was already consumed), or nil at a clean
// end of stream.
func (st *Stack) waitReadable(t *sim.Proc, s *Socket) (bool, error) {
	tcb := s.tcb
	for s.rcv.len() == 0 && s.err == nil && !s.rdShut && !tcb.peerClosed() && tcb.state != tcpClosed {
		st.condWait(t, &s.rcv.cond)
	}
	if s.rcv.len() > 0 {
		return true, nil
	}
	if err := s.takeErr(); err != nil {
		return false, err
	}
	if tcb.state == tcpClosed && !tcb.peerClosed() && !s.rdShut {
		return false, socketapi.ErrNotConn
	}
	return false, nil
}

// Shutdown closes one or both directions.
func (st *Stack) Shutdown(t *sim.Proc, s *Socket, how int) error {
	st.lock(t)
	defer st.unlock()
	return st.shutdownLocked(t, s, how)
}

func (st *Stack) shutdownLocked(t *sim.Proc, s *Socket, how int) error {
	if s.Proto == wire.ProtoTCP && s.tcb == nil {
		return socketapi.ErrNotConn
	}
	if how == socketapi.ShutRd || how == socketapi.ShutRdWr {
		s.rdShut = true
		s.sorwakeup(t, 0)
	}
	if how == socketapi.ShutWr || how == socketapi.ShutRdWr {
		if !s.wrShut {
			s.wrShut = true
			if s.tcb != nil && s.tcb.state >= tcpEstablished {
				s.tcb.usrClosed(t)
			}
		}
	}
	return nil
}

// Close releases the socket. TCP connections continue the shutdown
// handshake in the background (the deployment may instead migrate the
// session to the OS server first, which is the paper's design).
func (st *Stack) Close(t *sim.Proc, s *Socket) error {
	st.lock(t)
	defer st.unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	// Abort connections still waiting in the accept queue.
	for _, pending := range s.listenQ {
		if pending.tcb != nil {
			pending.tcb.drop(t, socketapi.ErrConnReset)
		}
	}
	s.listenQ = nil
	s.accepting.Broadcast()
	switch {
	case s.tcb != nil && s.tcb.state == tcpListen:
		s.tcb.setState(tcpClosed)
		st.deregister(s)
	case s.tcb != nil:
		if s.tcb.state < tcpEstablished {
			// Connection never completed: abort.
			s.tcb.drop(t, nil)
			st.deregister(s)
		} else if !s.wrShut {
			s.wrShut = true
			s.rdShut = true
			s.tcb.usrClosed(t)
			// deregistration happens when the tcb reaches tcpClosed.
		}
		s.tcb.armFinWait2() // write side shut earlier, or imported that way
	default:
		st.deregister(s)
	}
	s.sorwakeup(t, 0)
	s.sowwakeup(t, 0)
	return nil
}

// Abort resets the connection immediately (RST), as when a process dies
// holding a session.
func (st *Stack) Abort(t *sim.Proc, s *Socket) {
	st.lock(t)
	defer st.unlock()
	if s.tcb != nil && s.tcb.state != tcpClosed {
		s.tcb.sendRST(t)
		s.tcb.drop(t, socketapi.ErrConnReset)
	}
	s.closed = true
	st.deregister(s)
}

// Readable reports whether a receive-type call would not block.
func (s *Socket) Readable() bool {
	if s.err != nil || s.rdShut || s.closed {
		return true
	}
	if len(s.listenQ) > 0 {
		return true
	}
	if s.rcv != nil && s.rcv.len() > 0 {
		return true
	}
	if s.drcv != nil && len(s.drcv.q) > 0 {
		return true
	}
	if s.tcb != nil && s.tcb.peerClosed() {
		return true
	}
	return false
}

// Writable reports whether a send-type call would not block.
func (s *Socket) Writable() bool {
	if s.err != nil || s.wrShut || s.closed {
		return true
	}
	switch s.Proto {
	case wire.ProtoUDP:
		return true
	case wire.ProtoTCP:
		return s.tcb != nil && s.tcb.state >= tcpEstablished && s.snd.space() > 0
	}
	return false
}

// SetOption applies a socket option.
func (st *Stack) SetOption(s *Socket, opt, value int) error {
	switch opt {
	case socketapi.SoRcvBuf:
		if value <= 0 {
			return socketapi.ErrInvalid
		}
		s.rcvbufSize = value
		if s.rcv != nil {
			s.rcv.hiwat = value
		}
		if s.drcv != nil {
			s.drcv.hiwat = value
		}
	case socketapi.SoSndBuf:
		if value <= 0 {
			return socketapi.ErrInvalid
		}
		s.sndbufSize = value
		if s.snd != nil {
			s.snd.hiwat = value
		}
	case socketapi.SoReuseAddr:
		s.reuseAddr = value != 0
	case socketapi.TCPNoDelay:
		s.noDelay = value != 0
	case socketapi.SoKeepAlive:
		s.keepAlive = value != 0
	default:
		return socketapi.ErrInvalid
	}
	return nil
}

// GetOption reads a socket option.
func (st *Stack) GetOption(s *Socket, opt int) (int, error) {
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	switch opt {
	case socketapi.SoRcvBuf:
		return s.rcvbufSize, nil
	case socketapi.SoSndBuf:
		return s.sndbufSize, nil
	case socketapi.SoReuseAddr:
		return b2i(s.reuseAddr), nil
	case socketapi.TCPNoDelay:
		return b2i(s.noDelay), nil
	case socketapi.SoKeepAlive:
		return b2i(s.keepAlive), nil
	}
	return 0, socketapi.ErrInvalid
}

// maxUDPDatagram is the largest datagram the stack will emit (BSD's
// default limit; larger payloads fragment at the IP layer).
const maxUDPDatagram = 9216
