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
// on error, except ErrMoved: c then holds the bytes not queued, and they
// are the caller's again. Blocks until every byte is queued. Returns the
// byte count.
func (st *Stack) SendChain(t *sim.Proc, s *Socket, c *mbuf.Chain, opts SendOpts) (int, error) {
	if c == nil {
		c = mbuf.New()
	}
	// The chain is handed over by reference, so system entry pays only
	// its fixed cost: no bytes are priced as copyin.
	n, err := st.sosend(t, s, sendSrc{chain: c, alias: true, left: c.Len(), moved: &st.Stats.SockAliasedBytes}, opts)
	if err != nil && err != ErrMoved {
		c.Release() // whatever was not queued
	}
	return n, err
}

// SendChainCopy is Send with c's segments as its gather list, without
// building one: how a caller across a protection boundary sends a
// chain. Each segment is copied in, priced and counted as Send does, and
// queued and offered to TCP on its own, as a gather list's element is.
// c loses each byte as it is queued; what is left is the caller's.
func (st *Stack) SendChainCopy(t *sim.Proc, s *Socket, c *mbuf.Chain, opts SendOpts) (int, error) {
	n := c.Len()
	return st.sosend(t, s, sendSrc{chain: c, left: n, copyin: n, moved: &st.Stats.SockCopiedBytes}, opts)
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
	q, from, err := st.soreceive(t, s, true)
	if err != nil {
		return nil, nil, Addr{}, err
	}
	if q == nil {
		return mbuf.New(), nil, from, nil // EOF, or shutdown with nothing queued
	}
	n := q.Len()
	if max > 0 && max < n {
		n = max
	}
	view := q.CopyRegion(0, n)

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
	st.charge(t, s.Proto == wire.ProtoTCP, costs.CompCopyoutExit, copiedBytes)
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
			st.releaseDgram(d.data)
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
		if err := st.waitWritable(t, dst); err != nil {
			return moved, err
		}
		chunk := dst.snd.takeFrom(&src.rcv.data, min(dst.snd.space(), n-moved))
		if chunk == 0 {
			continue // raced: re-evaluate both wait conditions
		}
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
