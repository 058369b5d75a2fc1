package stack

import (
	"repro/internal/mbuf"
	"repro/internal/sim"
)

// streamBuf is a byte-stream socket buffer (TCP), the equivalent of a BSD
// sockbuf holding an mbuf chain. The chain is a value: a socket carries
// no chain header of its own to allocate.
type streamBuf struct {
	data  mbuf.Chain
	hiwat int
	cond  sim.Cond // waiters for space (send) or data (receive)
}

func (sb *streamBuf) len() int   { return sb.data.Len() }
func (sb *streamBuf) space() int { return sb.hiwat - sb.data.Len() }

// appendBytes copies b into the buffer.
func (sb *streamBuf) appendBytes(b []byte) { sb.data.AppendBytes(b) }

// appendAlias appends b without copying. The caller guarantees no one
// writes b: a NEWAPI send buffer the application has given up.
func (sb *streamBuf) appendAlias(b []byte) { sb.data.AppendAlias(b) }

// drop discards n bytes from the front (sbdrop; TCP acked data).
func (sb *streamBuf) drop(n int) { sb.data.TrimFront(n) }

// regionInto appends a storage-sharing view of bytes [off, off+n) onto
// out (m_copym; TCP segment construction from the send queue), so a
// reused scratch chain makes segment construction allocation-free.
func (sb *streamBuf) regionInto(out *mbuf.Chain, off, n int) { sb.data.CopyRegionInto(out, off, n) }

// takeFrom moves up to max bytes from the front of c into the buffer by
// reference and returns the count: how a surrendered chain is queued, and
// how Splice drains one socket's receive queue into another's send queue.
// What did not fit stays on c.
func (sb *streamBuf) takeFrom(c *mbuf.Chain, max int) int {
	n := min(max, c.Len())
	c.SplitTo(n, &sb.data)
	return n
}

// datagram is one queued UDP datagram with its source address.
type datagram struct {
	from Addr
	data *mbuf.Chain
}

// dgramBuf is a datagram socket buffer: a queue of datagrams bounded by
// total byte count (the socket's SO_RCVBUF), like a BSD sockbuf with
// record boundaries.
type dgramBuf struct {
	q     sim.Ring[datagram]
	bytes int
	cond  sim.Cond
}

func (db *dgramBuf) len() int { return db.bytes }

// enqueue adds a datagram if it fits in hiwat bytes; it reports whether
// it was accepted (BSD drops the datagram and counts a full-socket error
// otherwise).
func (db *dgramBuf) enqueue(from Addr, data *mbuf.Chain, hiwat int) bool {
	if db.bytes+data.Len() > hiwat {
		return false
	}
	db.q.Push(datagram{from: from, data: data})
	db.bytes += data.Len()
	return true
}

// dequeue removes the next datagram.
func (db *dgramBuf) dequeue() (datagram, bool) {
	d, ok := db.q.Pop()
	if ok {
		db.bytes -= d.data.Len()
	}
	return d, ok
}
