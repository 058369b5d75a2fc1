package stack

import (
	"repro/internal/costs"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/trace"
	"repro/internal/wire"
)

// tcpInput processes one received TCP segment (tcp_input). ih is the IP
// header; seg holds the TCP header and payload.
func (st *Stack) tcpInput(t *sim.Proc, ih wire.IPv4Header, seg []byte) {
	st.Stats.TCPIn.Inc()
	if !st.rxVerified {
		st.Stats.SwChecksumBytes.Add(uint64(len(seg)))
		if !wire.VerifyTCPChecksum(ih.Src, ih.Dst, seg) {
			st.Stats.TCPChecksumErrors.Inc()
			if st.traceOn() {
				st.traceEmit(trace.EvChecksumDrop, "", "tcp", int64(len(seg)), 0, 0)
			}
			return
		}
	}
	th, hlen, err := wire.UnmarshalTCP(seg)
	if err != nil {
		st.Stats.Drops.Inc()
		return
	}
	payload := seg[hlen:]
	st.charge(t, true, costs.CompTransportInput, len(payload))

	local := Addr{IP: ih.Dst, Port: th.DstPort}
	remote := Addr{IP: ih.Src, Port: th.SrcPort}
	s := st.lookup(wire.ProtoTCP, local, remote)
	if s == nil || s.tcb == nil {
		// No socket: RST unless the segment itself is a RST (or this is a
		// migration race; see Stack.quiet).
		if th.Flags&flagRST == 0 && !st.quiet(wire.ProtoTCP, local, remote) {
			st.respondToOrphan(t, th, local, remote, len(payload))
		}
		return
	}
	tp := s.tcb
	tp.idleTicks = 0
	tp.keepProbes = 0

	// LISTEN: a SYN creates a new connection (sonewconn).
	if tp.state == tcpListen {
		switch {
		case th.Flags&flagRST != 0:
			return
		case th.Flags&flagACK != 0:
			// A bare ACK at a listener is either a half-open remnant (RST
			// it) or a data segment racing a session migration (drop it;
			// the session's new owner handles the retransmission).
			if !st.quiet(wire.ProtoTCP, local, remote) {
				st.tcpRespond(t, local, remote, th.Ack, 0, flagRST)
			}
			return
		case th.Flags&flagSYN == 0:
			return
		}
		// Enforce the backlog against connections not yet accepted.
		if len(s.listenQ) >= s.listenBacklog {
			st.Stats.Drops.Inc()
			return
		}
		ns := st.newSocket(wire.ProtoTCP)
		ns.local = Addr{IP: st.cfg.LocalIP, Port: local.Port}
		ns.remote = remote
		ns.listener = s
		ns.sndbufSize, ns.rcvbufSize = s.sndbufSize, s.rcvbufSize
		ns.snd.hiwat, ns.rcv.hiwat = s.sndbufSize, s.rcvbufSize
		ns.noDelay = s.noDelay
		st.file(st.conns, tuple{wire.ProtoTCP, ns.local, ns.remote}, ns)
		ntp := newTCPCB(st, ns)
		ns.tcb = ntp
		if th.MSS != 0 {
			ntp.mss = int(th.MSS)
		}
		ntp.irs = th.Seq
		ntp.rcvNxt = th.Seq + 1
		ntp.rcvAdv = ntp.rcvNxt
		ntp.rcvUp = ntp.irs // urgent comparisons are mod-2^32 relative to the peer's ISS
		ntp.iss = st.iss()
		ntp.sndUna, ntp.sndNxt, ntp.sndMax = ntp.iss, ntp.iss, ntp.iss
		ntp.sndUp = ntp.iss
		ntp.sndWnd = uint32(th.Window)
		ntp.sndWl1, ntp.sndWl2 = th.Seq, 0
		ntp.setState(tcpSynRcvd)
		ntp.timers[timerKeep] = tcpKeepInitTicks
		st.tcpOutput(t, ntp) // SYN|ACK
		return
	}

	if th.MSS != 0 && th.Flags&flagSYN != 0 {
		tp.mss = int(th.MSS)
	}

	// SYN_SENT: waiting for our SYN to be answered.
	if tp.state == tcpSynSent {
		if th.Flags&flagACK != 0 && (seqLEQ(th.Ack, tp.iss) || seqGT(th.Ack, tp.sndMax)) {
			st.tcpRespond(t, local, remote, th.Ack, 0, flagRST)
			return
		}
		if th.Flags&flagRST != 0 {
			if th.Flags&flagACK != 0 {
				tp.drop(t, socketapi.ErrConnRefused)
			}
			return
		}
		if th.Flags&flagSYN == 0 {
			return
		}
		tp.irs = th.Seq
		tp.rcvNxt = th.Seq + 1
		tp.rcvAdv = tp.rcvNxt
		tp.rcvUp = tp.irs // urgent comparisons are mod-2^32 relative to the peer's ISS
		tp.sndWnd = uint32(th.Window)
		tp.sndWl1, tp.sndWl2 = th.Seq, th.Ack
		if th.Flags&flagACK != 0 && seqGT(th.Ack, tp.iss) {
			// Our SYN is acknowledged: connection complete.
			tp.sndUna = th.Ack
			tp.setState(tcpEstablished)
			tp.timers[timerRexmt] = 0
			tp.timers[timerKeep] = 0
			tp.ackNow = true
			s.stateChanged.Broadcast()
			s.notify()
			st.tcpOutput(t, tp)
		} else {
			// Simultaneous open.
			tp.setState(tcpSynRcvd)
			tp.ackNow = true
			st.tcpOutput(t, tp)
		}
		return
	}

	// General segment processing (states >= SYN_RCVD).

	// Trim the segment to the receive window.
	seq := th.Seq
	data := payload
	finFlag := th.Flags&flagFIN != 0

	if diff := int(int32(tp.rcvNxt - seq)); diff > 0 {
		// Leading duplicate bytes (or a duplicate SYN).
		if th.Flags&flagSYN != 0 {
			th.Flags &^= flagSYN
			seq++
			diff--
		}
		if diff >= len(data) {
			// Entirely duplicate (including bare keepalive probes, which
			// use seq one below the window). Keep the ACK information but
			// force a re-ACK so the peer resynchronizes (RFC 793: "if an
			// incoming segment is not acceptable, an acknowledgment
			// should be sent").
			tp.ackNow = true
			finFlag = false
			data = nil
			seq = tp.rcvNxt
		} else {
			data = data[diff:]
			seq = tp.rcvNxt
		}
	}
	// Trim anything beyond the window.
	if over := int(int32((seq + uint32(len(data))) - (tp.rcvNxt + tp.rcvWndEdge()))); over > 0 {
		if over >= len(data) {
			// Entirely outside. A zero-window probe still deserves an ACK.
			tp.ackNow = true
			data = nil
			finFlag = false
			if len(payload) == 0 && seqGT(seq, tp.rcvNxt) {
				// Out-of-window with no data: drop after ACK.
				st.tcpOutput(t, tp)
				return
			}
		} else {
			data = data[:len(data)-over]
			finFlag = false
		}
	}

	// RST.
	if th.Flags&flagRST != 0 {
		switch tp.state {
		case tcpSynRcvd:
			tp.drop(t, socketapi.ErrConnRefused)
		case tcpEstablished, tcpFinWait1, tcpFinWait2, tcpCloseWait:
			tp.drop(t, socketapi.ErrConnReset)
		case tcpClosing, tcpLastAck, tcpTimeWait:
			tp.close(t)
		}
		return
	}

	// A SYN inside the window is an error.
	if th.Flags&flagSYN != 0 {
		tp.sendRST(t)
		tp.drop(t, socketapi.ErrConnReset)
		return
	}

	if th.Flags&flagACK == 0 {
		return
	}

	// ACK processing.
	switch tp.state {
	case tcpSynRcvd:
		if seqLT(th.Ack, tp.sndUna) || seqGT(th.Ack, tp.sndMax) {
			st.tcpRespond(t, local, remote, th.Ack, 0, flagRST)
			return
		}
		tp.setState(tcpEstablished)
		tp.timers[timerKeep] = 0
		s.stateChanged.Broadcast()
		if l := s.listener; l != nil && !l.closed {
			waiters := l.accepting.Waiters()
			if waiters > 0 {
				st.charge(t, true, costs.CompWakeupUser, 0)
			}
			l.listenQ = append(l.listenQ, s)
			l.accepting.Signal()
			l.notify()
		}
	case tcpTimeWait:
		// RFC 793: TIME-WAIT acknowledges a retransmitted FIN (which the
		// trimming above marked for a re-ACK, like any unacceptable
		// segment) and restarts 2MSL. An acceptable pure ACK is dropped:
		// answering it makes two TIME_WAIT peers ACK each other for ever.
		if !tp.ackNow {
			return
		}
		tp.timers[timer2MSL] = 2 * tcpMSLTicks
	}

	if seqGT(th.Ack, tp.sndMax) {
		tp.ackNow = true
		st.tcpOutput(t, tp)
		return
	}

	if seqLEQ(th.Ack, tp.sndUna) {
		// Duplicate ACK.
		if len(data) == 0 && uint32(th.Window) == tp.sndWnd && tp.sndUna != tp.sndMax {
			st.Stats.TCPDupAcks.Inc()
			tp.dupAcks++
			if tp.dupAcks == 3 {
				// Fast retransmit (Net/2): halve the pipe, resend the
				// missing segment, inflate for the segments the dupacks
				// acknowledge.
				st.Stats.TCPFastRexmit.Inc()
				if st.traceOn() {
					st.traceEmit(trace.EvTCPRexmit, tp.connName(), "fast", int64(tp.dupAcks), 0, 0)
				}
				onxt := tp.sndNxt
				win := tp.sndWnd
				if tp.cwnd < win {
					win = tp.cwnd
				}
				ssthresh := win / 2
				if ssthresh < 2*uint32(tp.effMSS()) {
					ssthresh = 2 * uint32(tp.effMSS())
				}
				tp.ssthresh = ssthresh
				tp.timers[timerRexmt] = 0
				tp.rttTiming = false
				tp.sndNxt = tp.sndUna
				tp.cwndAcked = 0
				tp.cwnd = uint32(tp.effMSS())
				st.tcpOutput(t, tp)
				tp.cwnd = tp.ssthresh + 3*uint32(tp.effMSS())
				tp.traceCwnd()
				if seqGT(onxt, tp.sndNxt) {
					tp.sndNxt = onxt
				}
			} else if tp.dupAcks > 3 {
				tp.cwnd += uint32(tp.effMSS())
				st.tcpOutput(t, tp)
			}
		} else {
			tp.dupAcks = 0
		}
	} else {
		// New data acknowledged.
		if tp.dupAcks >= 3 && tp.cwnd > tp.ssthresh {
			tp.cwnd = tp.ssthresh // deflate after fast recovery
		}
		tp.dupAcks = 0
		acked := th.Ack - tp.sndUna

		// RTT sample (Karn: only segments acked without retransmission).
		if tp.rttTiming && seqGT(th.Ack, tp.rttSeq) {
			tp.rttTiming = false
			tp.rttUpdate(st.now().Sub(tp.rttStart))
		}

		// Congestion window growth, counted in bytes acknowledged
		// (RFC 3465) rather than ACKs received: a receiver that
		// coalesces segments ACKs rarely, and per-ACK counting would
		// starve the window behind an LRO engine.
		if tp.cwnd <= tp.ssthresh {
			// Slow start: at most double per window of ACKed data.
			incr := acked
			if incr > tp.cwnd {
				incr = tp.cwnd
			}
			tp.cwnd += incr
		} else {
			// Congestion avoidance: one MSS per cwnd's worth of ACKed
			// bytes, accumulated across stretched or delayed ACKs.
			tp.cwndAcked += acked
			if tp.cwndAcked >= tp.cwnd {
				tp.cwndAcked -= tp.cwnd
				tp.cwnd += uint32(tp.effMSS())
			}
		}
		if tp.cwnd > 65535 {
			tp.cwnd = 65535
		}
		tp.traceCwnd()

		// Remove acknowledged bytes from the send buffer, accounting for
		// SYN/FIN sequence numbers.
		dataAcked := int(acked)
		if tp.finSent && seqGT(th.Ack, tp.finSeq) {
			dataAcked--
		}
		synAcked := false
		if seqLEQ(tp.sndUna, tp.iss) && seqGT(th.Ack, tp.iss) {
			synAcked = true
			dataAcked--
		}
		_ = synAcked
		if dataAcked > s.snd.len() {
			dataAcked = s.snd.len()
		}
		if dataAcked > 0 {
			s.snd.drop(dataAcked)
			s.sowwakeup(t, dataAcked)
		}
		tp.sndUna = th.Ack
		if seqGT(tp.sndUna, tp.sndNxt) {
			tp.sndNxt = tp.sndUna
		}

		// Retransmit timer management.
		if th.Ack == tp.sndMax {
			tp.timers[timerRexmt] = 0
		} else if tp.timers[timerPersist] == 0 {
			tp.timers[timerRexmt] = tp.rexmtTicks()
		}

		ourFinAcked := tp.finSent && seqGT(tp.sndUna, tp.finSeq)
		switch tp.state {
		case tcpFinWait1:
			if ourFinAcked {
				tp.setState(tcpFinWait2)
				tp.armFinWait2()
				s.stateChanged.Broadcast()
			}
		case tcpClosing:
			if ourFinAcked {
				tp.setState(tcpTimeWait)
				tp.canonTimeWait()
				s.stateChanged.Broadcast()
			}
		case tcpLastAck:
			if ourFinAcked {
				tp.close(t)
				return
			}
		}
	}

	// Window update (RFC 793 ordering rules).
	if th.Flags&flagACK != 0 &&
		(seqLT(tp.sndWl1, seq) ||
			(tp.sndWl1 == seq && (seqLT(tp.sndWl2, th.Ack) ||
				(tp.sndWl2 == th.Ack && uint32(th.Window) > tp.sndWnd)))) {
		tp.sndWnd = uint32(th.Window)
		tp.sndWl1 = seq
		tp.sndWl2 = th.Ack
	}

	// Urgent data: capture the out-of-band byte when it arrives.
	if th.Flags&flagURG != 0 && th.Urgent > 0 && tp.state >= tcpEstablished {
		up := seq + uint32(th.Urgent)
		if seqGT(up, tp.rcvUp) {
			tp.rcvUp = up
			// The urgent byte is the last byte before the urgent pointer.
			if off := int(int32(up - seq - 1)); off >= 0 && off < len(data) {
				s.oob = append(s.oob, data[off])
			}
		}
	}

	// Payload processing.
	if len(data) > 0 && tp.state >= tcpEstablished && tp.state != tcpTimeWait &&
		tp.state != tcpClosing && tp.state != tcpLastAck {
		st.tcpReassemble(t, tp, seq, data, finFlag)
	} else if finFlag && seq == tp.rcvNxt {
		st.tcpHandleFin(t, tp)
	} else if len(data) > 0 || (finFlag && seqGT(seq, tp.rcvNxt)) {
		tp.ackNow = true
	}

	if tp.state == tcpClosed {
		return
	}
	if tp.ackNow || tp.delAck || s.snd.len() > int(tp.sndNxt-tp.sndUna) || tp.finSent && tp.sndNxt == tp.sndUna {
		st.tcpOutput(t, tp)
	}
}

// rcvWndEdge returns the current receive window extent for trimming.
func (tp *tcpcb) rcvWndEdge() uint32 {
	win := tp.sock.rcv.space()
	if win < 0 {
		win = 0
	}
	// Accept anything within what we last advertised, even if the buffer
	// shrank since.
	if adv := int(int32(tp.rcvAdv - tp.rcvNxt)); win < adv {
		win = adv
	}
	return uint32(win)
}

// tcpReassemble queues segment data, delivering everything that is now
// in order to the socket (tcp_reass).
func (st *Stack) tcpReassemble(t *sim.Proc, tp *tcpcb, seq uint32, data []byte, fin bool) {
	s := tp.sock
	if seq == tp.rcvNxt && len(tp.reasm) == 0 {
		// Common case: in order, nothing queued.
		st.charge(t, true, costs.CompMbufQueue, len(data))
		tp.rcvNxt += uint32(len(data))
		st.rx.keep(s.rcv.data, data)
		if tp.delAck {
			tp.ackNow = true // ACK every second segment
		} else {
			tp.delAck = true
			st.Stats.TCPDelayedAcks.Inc()
		}
		s.sorwakeup(t, len(data))
		if fin {
			st.tcpHandleFin(t, tp)
		}
		return
	}

	// Out of order (or filling a hole): insert into the reassembly queue.
	tp.ackNow = true // duplicate ACK tells the peer what we're missing
	st.insertReasm(tp, seq, data, fin)

	// Drain whatever is now contiguous.
	progress := 0
	for len(tp.reasm) > 0 {
		head := tp.reasm[0]
		if seqGT(head.seq, tp.rcvNxt) {
			break
		}
		// Trim any duplicate prefix.
		skip := int(int32(tp.rcvNxt - head.seq))
		if skip < head.data.Len() {
			head.data.TrimFront(skip)
			n := head.data.Len() // appendChain empties head.data; count first
			tp.rcvNxt += uint32(n)
			s.rcv.data.AppendChain(head.data)
			progress += n
		} else {
			head.data.Release() // all duplicate
		}
		if head.fin {
			tp.reasm = tp.reasm[1:]
			if progress > 0 {
				s.sorwakeup(t, progress)
			}
			st.tcpHandleFin(t, tp)
			return
		}
		tp.reasm = tp.reasm[1:]
	}
	if progress > 0 {
		st.charge(t, true, costs.CompMbufQueue, progress)
		s.sorwakeup(t, progress)
	}
}

// insertReasm places a segment into the sorted reassembly queue, trimming
// overlap against existing segments conservatively.
func (st *Stack) insertReasm(tp *tcpcb, seq uint32, data []byte, fin bool) {
	c := mbuf.New()
	st.rx.keep(c, data)
	seg := reasmSeg{seq: seq, data: c, fin: fin}
	// Find insertion point.
	i := 0
	for ; i < len(tp.reasm); i++ {
		if seqLT(seq, tp.reasm[i].seq) {
			break
		}
	}
	// Trim against predecessor.
	if i > 0 {
		prev := tp.reasm[i-1]
		prevEnd := prev.seq + uint32(prev.data.Len())
		if seqGEQ(seq, prev.seq) && seqLT(seq, prevEnd) {
			overlap := int(int32(prevEnd - seq))
			if overlap >= c.Len() {
				c.Release()
				return // fully contained
			}
			c.TrimFront(overlap)
			seg.seq = prevEnd
		}
	}
	// Trim successors that this segment covers.
	j := i
	for j < len(tp.reasm) {
		next := tp.reasm[j]
		segEnd := seg.seq + uint32(seg.data.Len())
		if seqGEQ(next.seq, segEnd) {
			break
		}
		nextEnd := next.seq + uint32(next.data.Len())
		if seqLEQ(nextEnd, segEnd) {
			// Fully covered: remove it (keep its FIN if any).
			seg.fin = seg.fin || next.fin
			next.data.Release()
			j++
			continue
		}
		// Partial: trim our tail instead (keep existing queued data).
		seg.data.TrimBack(int(int32(segEnd - next.seq)))
		break
	}
	out := make([]reasmSeg, 0, len(tp.reasm)+1)
	out = append(out, tp.reasm[:i]...)
	if seg.data.Len() > 0 || seg.fin {
		out = append(out, seg)
	} else {
		seg.data.Release()
	}
	out = append(out, tp.reasm[j:]...)
	tp.reasm = out
}

// tcpHandleFin processes an in-sequence FIN from the peer.
func (st *Stack) tcpHandleFin(t *sim.Proc, tp *tcpcb) {
	s := tp.sock
	if tp.sawFin {
		tp.ackNow = true
		return
	}
	tp.sawFin = true
	tp.rcvNxt++
	tp.ackNow = true
	s.sorwakeup(t, 0) // readers see EOF after draining
	switch tp.state {
	case tcpSynRcvd, tcpEstablished:
		tp.setState(tcpCloseWait)
	case tcpFinWait1:
		// Our FIN not yet acked (or this segment acked it; the ACK path
		// already moved us to FIN_WAIT_2 in that case).
		tp.setState(tcpClosing)
	case tcpFinWait2:
		tp.setState(tcpTimeWait)
		tp.canonTimeWait()
	}
	s.stateChanged.Broadcast()
	s.notify()
}

// armFinWait2 bounds FIN_WAIT_2 once the socket is closed and so can
// receive no more: without the peer's FIN (its RST lost, say) the tcb
// would hang for ever, so it gets the 2MSL wait, as BSD arms TCPT_2MSL.
// A socket that only shut down its write side is still read from and is
// left alone.
func (tp *tcpcb) armFinWait2() {
	if tp.state == tcpFinWait2 && tp.sock.closed {
		tp.timers[timer2MSL] = 2 * tcpMSLTicks
	}
}

// canonTimeWait arms the 2MSL timer and cancels the others.
func (tp *tcpcb) canonTimeWait() {
	for i := range tp.timers {
		tp.timers[i] = 0
	}
	tp.timers[timer2MSL] = 2 * tcpMSLTicks
}

// respondToOrphan sends the RFC 793 reset for a segment with no socket.
func (st *Stack) respondToOrphan(t *sim.Proc, th wire.TCPHeader, local, remote Addr, payloadLen int) {
	if th.Flags&flagACK != 0 {
		st.tcpRespond(t, local, remote, th.Ack, 0, flagRST)
	} else {
		n := uint32(payloadLen)
		if th.Flags&flagSYN != 0 {
			n++
		}
		if th.Flags&flagFIN != 0 {
			n++
		}
		st.tcpRespond(t, local, remote, 0, th.Seq+n, flagRST|flagACK)
	}
}
