package stack

import (
	"repro/internal/costs"
	"repro/internal/mbuf"
	"repro/internal/metrics"
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
	filed int    // demultiplexing-table entries naming this socket
	Proto uint8

	local, remote Addr
	portReserved  bool // in the padding after the Addrs
	// ports is the namespace the socket names itself in: its Control's,
	// if NewSocket made it; nil for a session that arrived named
	// (imported, adopted, or spawned on its listener's port).
	ports *LocalPorts

	// TCP.
	tcb           *tcpcb
	spare         *tcpcb // the control block allocated with the socket, until newTCPCB takes it
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
	rdShut, wrShut         bool
	closed                 bool

	// Chain-API accounting (psdstat -s surfaces these per socket).
	splicedBytes int64 // bytes moved through Splice, as source or sink
	zcRxBytes    int64 // bytes returned as RecvPeek aliased views
	selCopyBytes int64 // bytes materialized by CopyRanges specs

	err          error // so_error: async errors delivered to the next call
	accepting    sim.Cond
	stateChanged sim.Cond // connect()/close() progress

	// Notify, when set, is invoked (in whatever thread caused the change)
	// whenever the socket becomes readable/writable or its state changes.
	// The decomposed architecture uses it for the cooperative select
	// machinery (proxy_status); it must not block.
	Notify func()
}

// DefaultSockBuf is a new socket's send and receive buffer size
// (SO_SNDBUF/SO_RCVBUF override it per socket).
const DefaultSockBuf = 8 * 1024

// NewSocket creates an unbound socket for proto (wire.ProtoTCP or
// wire.ProtoUDP).
func (st *Control) NewSocket(proto uint8) *Socket {
	s := st.newSocket(proto)
	s.ports = st.ports
	return s
}

// tcpSocket is a TCP socket as one allocation: the socket, its two
// stream buffers and the control block its first open takes. It is 696
// B, so that with the allocator's 8-byte header it fills the 704-byte
// size class.
type tcpSocket struct {
	Socket
	bufs [2]streamBuf
	tcb  tcpcb
}

func (st *Stack) newSocket(proto uint8) *Socket {
	if proto == wire.ProtoTCP {
		o := new(tcpSocket)
		return st.tcpSocketIn(&o.Socket, &o.bufs[0], &o.bufs[1], &o.tcb)
	}
	st.sockSeq++
	s := &Socket{st: st, uid: st.sockSeq, Proto: proto, sndbufSize: DefaultSockBuf, rcvbufSize: DefaultSockBuf}
	s.drcv = newDgramBuf(DefaultSockBuf)
	return s
}

// tcpSocketIn makes s a new TCP socket of this stack, numbered in
// creation order, with stream buffers snd and rcv and tcb the control
// block its first open takes. The storage is a fresh tcpSocket's, or
// the one an exported socket's blob carries (see TCPSessionState),
// which starts from zero all the same.
func (st *Stack) tcpSocketIn(s *Socket, snd, rcv *streamBuf, tcb *tcpcb) *Socket {
	st.sockSeq++
	*s = Socket{st: st, uid: st.sockSeq, Proto: wire.ProtoTCP, snd: snd, rcv: rcv, spare: tcb,
		sndbufSize: DefaultSockBuf, rcvbufSize: DefaultSockBuf}
	*snd, *rcv = streamBuf{hiwat: DefaultSockBuf}, streamBuf{hiwat: DefaultSockBuf}
	return s
}

// waitedOn reports whether a thread is parked on one of s's conditions.
func (s *Socket) waitedOn() bool {
	return s.accepting.Waiters()+s.stateChanged.Waiters()+s.snd.cond.Waiters()+s.rcv.cond.Waiters() > 0
}

// LocalAddr returns the bound local endpoint.
func (s *Socket) LocalAddr() Addr { return s.local }

// RemoteAddr returns the connected remote endpoint.
func (s *Socket) RemoteAddr() Addr { return s.remote }

// Err returns and clears the pending asynchronous error (so_error);
// ErrMoved stays, for every waiter.
func (s *Socket) takeErr() error {
	e := s.err
	if e != ErrMoved {
		s.err = nil
	}
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
// output; lookup handles both). It takes no lock and callers inside the
// protocol lock use it too: bind performs no yielding operations, so it
// is atomic with respect to other simulated threads either way.
func (st *Control) Bind(s *Socket, addr Addr) error { return st.bind(s, addr) }

// bind is Bind, also reached by the implicit bind of connect and of
// sendto — on a socket still unnamed, which only NewSocket's can be.
func (st *Stack) bind(s *Socket, addr Addr) error {
	if s.local.Port != 0 {
		return socketapi.ErrInvalid // already bound
	}
	if !addr.IP.IsZero() && addr.IP != st.cfg.LocalIP {
		return socketapi.ErrAddrNotAvail
	}
	port := addr.Port
	var err error
	if port == 0 {
		port, err = s.ports.AllocEphemeral(s.Proto)
	} else {
		err = s.ports.Reserve(s.Proto, port, s.reuseAddr)
	}
	if err != nil {
		return err
	}
	s.local = Addr{IP: addr.IP, Port: port}
	s.portReserved = true
	st.file(st.binds, tuple{s.Proto, s.local, Addr{}}, s)
	return nil
}

// registerConn moves a socket into the full-tuple connection map.
func (st *Stack) registerConn(s *Socket) {
	st.unfile(st.binds, tuple{s.Proto, s.local, Addr{}}, s)
	st.file(st.conns, tuple{s.Proto, s.local, s.remote}, s)
}

// deregister removes the socket from all demultiplexing tables and
// releases its port.
func (st *Stack) deregister(s *Socket) {
	st.unfile(st.binds, tuple{s.Proto, s.local, Addr{}}, s)
	if !s.remote.IsZero() {
		st.unfile(st.conns, tuple{s.Proto, s.local, s.remote}, s)
	}
	if s.portReserved {
		// A listener's port may be shared with its spawned connections;
		// only the reserving socket releases it.
		s.ports.Release(s.Proto, s.local.Port)
		s.portReserved = false
	}
}

// Listen marks a bound TCP socket passive.
func (st *Control) Listen(s *Socket, backlog int) error {
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
		s.tcb = newTCPCB(st.Stack, s)
		s.tcb.setState(tcpListen)
	}
	return nil
}

// Accept blocks until an established connection is available on the
// listen queue and returns it.
func (st *Control) Accept(t *sim.Proc, s *Socket) (*Socket, error) {
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
func (st *Control) Connect(t *sim.Proc, s *Socket, raddr Addr) error {
	if raddr.IP.IsZero() || raddr.Port == 0 {
		return socketapi.ErrInvalid
	}
	st.lock(t)
	defer st.unlock()
	if s.local.Port == 0 {
		if err := st.bind(s, Addr{}); err != nil {
			return err
		}
	}
	// The bind table entry may be keyed under the wildcard IP; remove it
	// under the old key before qualifying the local address.
	st.unfile(st.binds, tuple{s.Proto, s.local, Addr{}}, s)
	s.local.IP = st.cfg.LocalIP
	switch s.Proto {
	case wire.ProtoUDP:
		if !s.remote.IsZero() {
			st.unfile(st.conns, tuple{s.Proto, s.local, s.remote}, s)
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
		s.tcb = newTCPCB(st.Stack, s)
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

// sendSrc is the data of one send call and the way it reaches the socket
// buffer: a gather list copied in (the BSD calls), a gather list
// referenced in place (NEWAPI), a chain copied in (a chain sent across a
// protection boundary), or a chain moved by reference. They differ in
// the mover, in the bytes priced as copyin and in the counter that
// records them; everything else about queueing is sosend's. It is a
// plain value, so a send allocates nothing for it.
type sendSrc struct {
	iov    [][]byte         // gather list; iov[0][off:] is the next byte
	off    int              // consumed prefix of iov[0]
	alias  bool             // reference the source's storage instead of copying it
	chain  *mbuf.Chain      // nil for a gather list; loses each byte it hands over
	left   int              // bytes not yet handed over
	copyin int              // bytes charged as CompEntryCopyin (the profile prices them)
	moved  *metrics.Counter // SockCopiedBytes or SockAliasedBytes
}

// moveTo queues up to space bytes on sb. A gather list, and a chain
// being copied, never move past the end of the current element or
// segment — each is queued, and offered to TCP, on its own — while a
// chain moved by reference moves as much as fits.
func (src *sendSrc) moveTo(sb *streamBuf, space int) {
	var n int
	switch {
	case src.chain == nil:
		for src.off == len(src.iov[0]) {
			src.iov, src.off = src.iov[1:], 0
		}
		b := src.iov[0][src.off:]
		n = min(space, len(b))
		if src.alias {
			sb.appendAlias(b[:n])
		} else {
			sb.appendBytes(b[:n])
		}
		src.off += n
	case src.alias:
		n = sb.takeFrom(src.chain, space)
	default:
		it := src.chain.Iter()
		b, _ := it.Next()
		for len(b) == 0 {
			b, _ = it.Next()
		}
		n = min(space, len(b))
		sb.appendBytes(b[:n])
		src.chain.TrimFront(n)
	}
	src.left -= n
	src.moved.Add(uint64(n))
}

// datagram hands the whole payload over as one chain (UDP): the
// surrendered chain, or the gather list or chain copied into c (the
// caller's, so that it can live on its stack).
func (src *sendSrc) datagram(c *mbuf.Chain) *mbuf.Chain {
	src.moved.Add(uint64(src.left))
	switch {
	case src.chain == nil:
		for _, b := range src.iov {
			if src.alias {
				c.AppendAlias(b)
			} else {
				c.AppendBytes(b)
			}
		}
	case src.alias:
		return src.chain
	default:
		for it := src.chain.Iter(); ; {
			b, ok := it.Next()
			if !ok {
				break
			}
			c.AppendBytes(b)
		}
	}
	return c
}

// Send writes data on the socket: the implementation behind all ten BSD
// data-movement calls and, with opts.ZeroCopy, NEWAPI. iov is a gather
// list; for UDP it forms a single datagram.
func (st *Stack) Send(t *sim.Proc, s *Socket, iov [][]byte, opts SendOpts) (int, error) {
	src := sendSrc{iov: iov, alias: opts.ZeroCopy, moved: &st.Stats.SockCopiedBytes}
	if opts.ZeroCopy {
		src.moved = &st.Stats.SockAliasedBytes
	}
	for _, b := range iov {
		src.left += len(b)
	}
	src.copyin = src.left
	return st.sosend(t, s, src, opts)
}

// sosend queues src's bytes on the socket, blocking until every byte is
// queued (TCP) or emitting them as one datagram (UDP): the one send path
// under Send, SendChain and every call built on them.
func (st *Stack) sosend(t *sim.Proc, s *Socket, src sendSrc, opts SendOpts) (int, error) {
	total := src.left
	st.lock(t)
	defer st.unlock()
	if err := s.takeErr(); err != nil {
		return 0, err
	}
	if s.wrShut {
		return 0, socketapi.ErrPipe
	}
	st.charge(t, s.Proto == wire.ProtoTCP, costs.CompEntryCopyin, src.copyin)

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
			if err := st.bind(s, Addr{}); err != nil {
				return 0, err
			}
		}
		if total > maxUDPDatagram {
			return 0, socketapi.ErrMsgSize
		}
		from := s.local
		if from.IP.IsZero() {
			from.IP = st.cfg.LocalIP
		}
		var gathered mbuf.Chain
		if err := st.udpOutput(t, from, dst, src.datagram(&gathered)); err != nil {
			return 0, err
		}
		return total, nil

	case wire.ProtoTCP:
		tcb := s.tcb
		if tcb == nil || tcb.state < tcpEstablished {
			return 0, socketapi.ErrNotConn
		}
		for src.left > 0 {
			if err := st.waitWritable(t, s); err != nil {
				return total - src.left, err
			}
			src.moveTo(s.snd, s.snd.space())
			if opts.OOB && src.left == 0 {
				// Urgent pointer covers through the last byte of the call
				// (BSD sets it once, after the whole write is queued).
				tcb.sndUp = tcb.sndUna + uint32(s.snd.len())
				tcb.forceUrgent = true
			}
			st.tcpOutput(t, tcb)
		}
		return total, nil
	}
	return 0, socketapi.ErrNotSupported
}

// waitWritable blocks until the stream socket's send buffer has room or
// never will, and says why not: the pending error, or EPIPE once the
// write side is shut or the connection gone.
func (st *Stack) waitWritable(t *sim.Proc, s *Socket) error {
	for s.snd.space() <= 0 && s.err == nil && !s.wrShut && s.tcb.state >= tcpEstablished {
		st.condWait(t, &s.snd.cond)
	}
	if err := s.takeErr(); err != nil {
		return err
	}
	if s.wrShut || s.tcb.state == tcpClosed {
		return socketapi.ErrPipe
	}
	return nil
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
	// Max bounds a ZeroCopy view; 0 or less means all that is queued.
	Max int
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

	q, from, err := st.soreceive(t, s, opts.Peek)
	if q == nil {
		return 0, from, nil, err // the error, EOF, or shutdown with nothing queued
	}
	var view []byte
	if opts.ZeroCopy {
		// NEWAPI: the destination is a buffer the stack allocates at the
		// size it is about to return. Filling it is still a copy.
		size := q.Len()
		if opts.Max > 0 {
			size = min(size, opts.Max)
		}
		p = make([]byte, size)
		view = p
	}
	n := q.ReadAt(p, 0)
	switch {
	case opts.Peek: // nothing is consumed
	case isTCP:
		q.TrimFront(n)
		// Receive window opened; let the peer know if it matters.
		st.tcpOutput(t, s.tcb)
	default:
		st.releaseDgram(q) // rest of datagram is discarded, as BSD does
	}
	st.Stats.SockCopiedBytes.Add(uint64(n))
	st.charge(t, isTCP, costs.CompCopyoutExit, n)
	return n, from, view, nil
}

// soreceive is the prelude of every receive call: it blocks until the
// socket has something to deliver or never will, and returns the chain to
// read from — the front datagram (dequeued unless peek) with its source,
// or the stream's receive queue. A nil chain with a nil error is end of
// stream, or a datagram socket shut down with nothing queued.
func (st *Stack) soreceive(t *sim.Proc, s *Socket, peek bool) (*mbuf.Chain, Addr, error) {
	switch s.Proto {
	case wire.ProtoUDP:
		for s.drcv.len() == 0 && len(s.drcv.q) == 0 && s.err == nil && !s.rdShut {
			st.condWait(t, &s.drcv.cond)
		}
		if err := s.takeErr(); err != nil {
			return nil, Addr{}, err
		}
		d, _ := s.drcv.peek()
		if !peek {
			s.drcv.dequeue()
		}
		return d.data, d.from, nil

	case wire.ProtoTCP:
		if s.tcb == nil {
			return nil, Addr{}, socketapi.ErrNotConn
		}
		if ok, err := st.waitReadable(t, s); !ok {
			if err != nil {
				return nil, Addr{}, err
			}
			return nil, s.remote, nil
		}
		return &s.rcv.data, s.remote, nil
	}
	return nil, Addr{}, socketapi.ErrNotSupported
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
func (st *Control) Close(t *sim.Proc, s *Socket) error {
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
func (st *Control) Abort(t *sim.Proc, s *Socket) {
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
