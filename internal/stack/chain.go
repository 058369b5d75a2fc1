package stack

import (
	"repro/internal/costs"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/wire"
)

// Chain-based data movement: the socket layer without its copies.
//
// SendChain surrenders a refcounted chain to the protocol, RecvPeek
// returns a storage-sharing view of the receive queue with Libra-style
// selective materialization, RecvRelease consumes, and Splice pumps
// bytes socket-to-socket entirely below the API (sendfile for two
// sockets). The send queue doubles as the retransmission queue, so
// segments in flight hold references into the same storage; chain
// mutations by the application go through mbuf.WriteAt, whose
// copy-on-write keeps those segments intact.

// SendChain queues the chain's bytes on the socket, surrendering
// ownership of c: the protocol releases its segments as data is
// acknowledged (TCP) or transmitted (UDP), and releases the remainder
// on error. Blocks until every byte is queued. Returns the byte count.
func (st *Stack) SendChain(t *sim.Proc, s *Socket, c *mbuf.Chain, opts SendOpts) (int, error) {
	if c == nil {
		c = mbuf.New()
	}
	total := c.Len()
	isTCP := s.Proto == wire.ProtoTCP
	st.lock(t)
	defer st.unlock()
	if err := s.takeErr(); err != nil {
		c.Release()
		return 0, err
	}
	if s.wrShut {
		c.Release()
		return 0, socketapi.ErrPipe
	}
	// System entry without the copyin: the chain is handed over by
	// reference, so only the fixed entry cost is paid.
	st.charge(t, isTCP, costs.CompEntryCopyin, 0)

	switch s.Proto {
	case wire.ProtoUDP:
		dst := s.remote
		if opts.To != nil {
			dst = *opts.To
		}
		if dst.IsZero() {
			c.Release()
			return 0, socketapi.ErrNotConn
		}
		if s.local.Port == 0 {
			if err := st.bindLocked(s, Addr{}); err != nil {
				c.Release()
				return 0, err
			}
		}
		if total > maxUDPDatagram {
			c.Release()
			return 0, socketapi.ErrMsgSize
		}
		src := s.local
		if src.IP.IsZero() {
			src.IP = st.cfg.LocalIP
		}
		st.Stats.SockAliasedBytes.Add(uint64(total))
		if err := st.udpOutput(t, src, dst, c); err != nil {
			return 0, err
		}
		return total, nil

	case wire.ProtoTCP:
		tcb := s.tcb
		if tcb == nil || tcb.state < tcpEstablished {
			c.Release()
			return 0, socketapi.ErrNotConn
		}
		sent := 0
		for c.Len() > 0 {
			for s.snd.space() <= 0 && s.err == nil && !s.wrShut && tcb.state >= tcpEstablished {
				st.condWait(t, &s.snd.cond)
			}
			if err := s.takeErr(); err != nil {
				c.Release()
				return sent, err
			}
			if s.wrShut || tcb.state == tcpClosed {
				c.Release()
				return sent, socketapi.ErrPipe
			}
			n := c.Len()
			if sp := s.snd.space(); n > sp {
				n = sp
			}
			if n == c.Len() {
				s.snd.appendChain(c)
			} else {
				rest := c.Split(n)
				s.snd.appendChain(c) // c is emptied by the move
				c.AppendChain(rest)  // remainder becomes the next round's input
			}
			sent += n
			st.Stats.SockAliasedBytes.Add(uint64(n))
			if opts.OOB && c.Len() == 0 {
				tcb.sndUp = tcb.sndUna + uint32(s.snd.len())
				tcb.forceUrgent = true
			}
			st.tcpOutput(t, tcb)
		}
		return sent, nil
	}
	c.Release()
	return 0, socketapi.ErrNotSupported
}

// RecvPeek blocks until data (or EOF/error) and returns a
// storage-sharing view of up to max bytes of the receive queue without
// consuming them, plus a private copy of each requested range
// (clamped to the view). max <= 0 means everything available. For UDP
// the view covers (a prefix of) the front datagram and from is its
// source. At EOF the view is an empty chain and err is nil.
//
// The caller owns the view chain: it must Release it or surrender it
// to SendChain. The viewed bytes stay valid across RecvRelease because
// the view holds its own storage references.
func (st *Stack) RecvPeek(t *sim.Proc, s *Socket, max int, ranges []socketapi.Range) (*mbuf.Chain, [][]byte, Addr, error) {
	st.lock(t)
	defer st.unlock()
	isTCP := s.Proto == wire.ProtoTCP

	var view *mbuf.Chain
	var from Addr
	switch s.Proto {
	case wire.ProtoUDP:
		for s.drcv.len() == 0 && len(s.drcv.q) == 0 && s.err == nil && !s.rdShut {
			st.condWait(t, &s.drcv.cond)
		}
		if err := s.takeErr(); err != nil {
			return nil, nil, Addr{}, err
		}
		d, ok := s.drcv.peek()
		if !ok {
			return mbuf.New(), nil, Addr{}, nil // shutdown with nothing queued
		}
		n := d.data.Len()
		if max > 0 && max < n {
			n = max
		}
		view = d.data.CopyRegion(0, n)
		from = d.from

	case wire.ProtoTCP:
		if s.tcb == nil {
			return nil, nil, Addr{}, socketapi.ErrNotConn
		}
		if ok, err := st.waitReadable(t, s); !ok {
			if err != nil {
				return nil, nil, Addr{}, err
			}
			return mbuf.New(), nil, s.remote, nil // EOF
		}
		n := s.rcv.len()
		if max > 0 && max < n {
			n = max
		}
		view = s.rcv.data.CopyRegion(0, n)
		from = s.remote

	default:
		return nil, nil, Addr{}, socketapi.ErrNotSupported
	}

	n := view.Len()
	s.zcRxBytes += int64(n)
	st.Stats.ZeroCopyRxBytes.Add(uint64(n))
	st.Stats.SockAliasedBytes.Add(uint64(n))
	// Exit pays copyout only for the selectively materialized bytes.
	copied := socketapi.MaterializeRanges(view, ranges)
	copiedBytes := 0
	for _, b := range copied {
		copiedBytes += len(b)
	}
	s.selCopyBytes += int64(copiedBytes)
	st.Stats.SelectiveCopyBytes.Add(uint64(copiedBytes))
	st.Stats.SockCopiedBytes.Add(uint64(copiedBytes))
	st.charge(t, isTCP, costs.CompCopyoutExit, copiedBytes)
	return view, copied, from, nil
}

// RecvRelease consumes n bytes from the receive queue (clamped to what
// is queued) and advertises the opened window. For UDP it consumes the
// front datagram regardless of n (record boundaries). Views returned
// by RecvPeek remain valid: they hold their own references.
func (st *Stack) RecvRelease(t *sim.Proc, s *Socket, n int) error {
	if n < 0 {
		return socketapi.ErrInvalid
	}
	st.lock(t)
	defer st.unlock()
	switch s.Proto {
	case wire.ProtoUDP:
		if d, ok := s.drcv.dequeue(); ok {
			d.data.Release()
		}
	case wire.ProtoTCP:
		if s.tcb == nil {
			return socketapi.ErrNotConn
		}
		if n > s.rcv.len() {
			n = s.rcv.len()
		}
		s.rcv.drop(n)
		// Receive window opened; let the peer know if it matters.
		st.tcpOutput(t, s.tcb)
	default:
		return socketapi.ErrNotSupported
	}
	st.charge(t, s.Proto == wire.ProtoTCP, costs.CompCopyoutExit, 0)
	return nil
}

// Splice moves up to n bytes from src's receive queue to dst's send
// queue by reference — no byte is copied — blocking until n bytes have
// moved or src reaches EOF. Both sockets must be connected TCP streams
// on this stack. Flow control composes naturally: a full dst send
// buffer stalls the pump, src's receive window closes, and the
// upstream sender slows down. Returns the number of bytes moved (0 at
// immediate EOF).
func (st *Stack) Splice(t *sim.Proc, dst, src *Socket, n int) (int, error) {
	if src.Proto != wire.ProtoTCP || dst.Proto != wire.ProtoTCP {
		return 0, socketapi.ErrNotSupported
	}
	st.lock(t)
	defer st.unlock()
	if src.tcb == nil || dst.tcb == nil || dst.tcb.state < tcpEstablished {
		return 0, socketapi.ErrNotConn
	}
	st.charge(t, true, costs.CompEntryCopyin, 0)
	st.Stats.SpliceOps.Inc()
	moved := 0
	for moved < n {
		// Wait for source bytes.
		if ok, err := st.waitReadable(t, src); !ok {
			if err != nil {
				return moved, err
			}
			break // EOF
		}
		// Wait for sink space.
		for dst.snd.space() <= 0 && dst.err == nil && !dst.wrShut && dst.tcb.state >= tcpEstablished {
			st.condWait(t, &dst.snd.cond)
		}
		if err := dst.takeErr(); err != nil {
			return moved, err
		}
		if dst.wrShut || dst.tcb.state == tcpClosed {
			return moved, socketapi.ErrPipe
		}
		chunk := src.rcv.len()
		if sp := dst.snd.space(); chunk > sp {
			chunk = sp
		}
		if rem := n - moved; chunk > rem {
			chunk = rem
		}
		if chunk <= 0 {
			continue // raced: re-evaluate both wait conditions
		}
		c := src.rcv.readChain(chunk)
		dst.snd.appendChain(c)
		moved += chunk
		src.splicedBytes += int64(chunk)
		dst.splicedBytes += int64(chunk)
		st.Stats.SpliceBytes.Add(uint64(chunk))
		st.Stats.SockAliasedBytes.Add(uint64(chunk))
		st.charge(t, true, costs.CompMbufQueue, chunk)
		st.tcpOutput(t, dst.tcb) // push the forwarded bytes
		st.tcpOutput(t, src.tcb) // advertise src's opened window
	}
	return moved, nil
}
