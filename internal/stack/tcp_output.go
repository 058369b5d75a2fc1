package stack

import (
	"repro/internal/costs"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/wire"
)

// outputFlags gives the TCP flags appropriate to each state (tcp_outflags).
var outputFlags = [...]uint8{
	tcpClosed:      flagRST | flagACK,
	tcpListen:      0,
	tcpSynSent:     flagSYN,
	tcpSynRcvd:     flagSYN | flagACK,
	tcpEstablished: flagACK,
	tcpCloseWait:   flagACK,
	tcpFinWait1:    flagFIN | flagACK,
	tcpClosing:     flagFIN | flagACK,
	tcpLastAck:     flagFIN | flagACK,
	tcpFinWait2:    flagACK,
	tcpTimeWait:    flagACK,
}

// tcpOutput is the TCP output routine (tcp_output): it decides whether a
// segment should be sent and emits as many as the windows allow.
func (st *Stack) tcpOutput(t *sim.Proc, tp *tcpcb) {
	s := tp.sock
	idle := tp.sndMax == tp.sndUna

	for {
		off := int(tp.sndNxt - tp.sndUna)
		win := tp.sndWnd
		if tp.cwnd < win {
			win = tp.cwnd
		}
		flags := outputFlags[tp.state]

		if tp.force && win == 0 {
			// Persist probe: force one byte past the closed window.
			win = 1
		}

		sendable := s.snd.len() - off
		if sendable < 0 {
			sendable = 0
		}
		length := sendable
		if int(win) < off+length {
			length = int(win) - off
			if length < 0 {
				length = 0
			}
		}
		mss := tp.effMSS()
		segMax := mss
		if st.cfg.Offload && tsoMaxPayload > mss && !seqGT(tp.sndUp, tp.sndUna) {
			// TSO: emit one super-segment and let the NIC engine slice it
			// to MSS frames. Urgent data opts out — the urgent pointer is
			// relative to one segment's sequence number and would not
			// survive slicing.
			segMax = tsoMaxPayload
		}
		sendalot := false
		if length > segMax {
			length = segMax
			sendalot = true
		}

		// A FIN only goes out once all data has been sent, and again only
		// when positioned for its retransmission.
		if flags&flagFIN != 0 {
			if off+length < s.snd.len() || sendalot {
				flags &^= flagFIN
			} else if tp.finSent && tp.sndNxt != tp.finSeq {
				flags &^= flagFIN
			}
		}
		if tp.state == tcpSynSent || tp.state == tcpSynRcvd {
			// Data never accompanies our SYN in this stack.
			length = 0
		}

		// Receiver's advertised window for this segment.
		rwin := st.tcpRcvWindow(tp)

		// Decide whether to transmit.
		send := false
		switch {
		case flags&(flagSYN|flagRST) != 0:
			send = true
		case flags&flagFIN != 0 && (!tp.finSent || tp.sndNxt == tp.finSeq):
			send = true
		case tp.force && length > 0:
			send = true
		case length >= mss:
			send = true
		case length > 0 && seqLT(tp.sndNxt, tp.sndMax):
			send = true // retransmission
		case length > 0 && (s.noDelay || idle):
			send = true // Nagle: small segments only when no data is in flight
		case tp.ackNow:
			send = true
		case seqGT(tp.sndUp, tp.sndUna):
			send = true // urgent data pending
		case st.tcpWindowUpdateWorthwhile(tp, rwin):
			send = true
		}

		if !send {
			// If data is waiting but the window is closed, arm the persist
			// timer so we eventually probe.
			if s.snd.len() > off && tp.timers[timerRexmt] == 0 && tp.timers[timerPersist] == 0 {
				tp.rexmtShift = 0
				tp.setPersist()
			}
			return
		}

		st.tcpSendSegment(t, tp, flags, length, rwin)

		if sendalot {
			idle = false
			continue
		}
		return
	}
}

// tcpRcvWindow computes the receive window to advertise, applying
// receiver-side silly-window avoidance and never shrinking a window
// already advertised.
func (st *Stack) tcpRcvWindow(tp *tcpcb) uint32 {
	s := tp.sock
	win := s.rcv.space()
	if win < 0 {
		win = 0
	}
	// Silly window avoidance: don't advertise tiny increases.
	if win < s.rcvbufSize/4 && win < tp.effMSS() {
		win = 0
	}
	if win > 65535 {
		win = 65535
	}
	// Never retract an advertisement.
	if adv := int(int32(tp.rcvAdv - tp.rcvNxt)); win < adv {
		win = adv
	}
	return uint32(win)
}

// tcpWindowUpdateWorthwhile implements the sender-side of receiver window
// updates: send one if the window has opened by two segments or half the
// receive buffer.
func (st *Stack) tcpWindowUpdateWorthwhile(tp *tcpcb, rwin uint32) bool {
	if rwin == 0 {
		return false
	}
	adv := int(int32(tp.rcvNxt + rwin - tp.rcvAdv))
	if adv <= 0 {
		return false
	}
	return adv >= 2*tp.effMSS() || 2*adv >= tp.sock.rcvbufSize
}

// tcpSendSegment builds and transmits one segment with the given flags
// carrying length bytes from the send queue at sndNxt.
func (st *Stack) tcpSendSegment(t *sim.Proc, tp *tcpcb, flags uint8, length int, rwin uint32) {
	s := tp.sock
	seq := tp.sndNxt
	if tp.force && length == 0 && tp.timers[timerPersist] != 0 {
		// Window probe with no data: use sndUna so the segment is
		// acceptable even when the peer has no window.
		seq = tp.sndUna
	}

	// The segment is assembled in the control block's scratch chain:
	// ipOutput consumes and recycles it, so steady-state sends reuse the
	// same chain and pooled segments run after run.
	seg := &tp.txc
	if length > 0 {
		off := int(tp.sndNxt - tp.sndUna)
		s.snd.regionInto(seg, off, length)
	}

	hdr := wire.TCPHeader{
		SrcPort: s.local.Port,
		DstPort: s.remote.Port,
		Seq:     seq,
		Ack:     tp.rcvNxt,
		Flags:   flags,
		Window:  uint16(rwin),
	}
	if flags&flagSYN != 0 {
		hdr.MSS = uint16(tcpDefaultMSS)
	}
	if flags&flagACK == 0 {
		hdr.Ack = 0
	}
	// Urgent pointer.
	if seqGT(tp.sndUp, seq) && seqLEQ(tp.sndUp, seq+uint32(length)) || tp.forceUrgent {
		if seqGT(tp.sndUp, seq) {
			hdr.Flags |= flagURG
			hdr.Urgent = uint16(tp.sndUp - seq)
		}
		tp.forceUrgent = false
	}
	if length > 0 && int(tp.sndNxt-tp.sndUna)+length >= s.snd.len() {
		hdr.Flags |= flagPSH
	}

	st.charge(t, true, costs.CompTransportOutput, length)
	st.Stats.TCPOut.Inc()
	if length > tp.effMSS() {
		st.Stats.TSOSends.Inc()
	}
	if length == 0 && flags&(flagSYN|flagFIN|flagRST) == 0 {
		st.Stats.TCPPureAcks.Inc()
	}

	// Serialize the header (checksum zero) in front of the payload; the
	// IP layer computes the checksum during its fused copy into the frame.
	hdr.Marshal(seg.Prepend(hdr.HeaderLen()))

	// Advance send state.
	if flags&flagSYN != 0 && tp.sndNxt == tp.iss {
		tp.sndNxt++
	}
	if length > 0 && seq == tp.sndNxt {
		tp.sndNxt += uint32(length)
	}
	if flags&flagFIN != 0 {
		if !tp.finSent {
			tp.finSent = true
			tp.finSeq = tp.sndNxt
			tp.sndNxt++
		} else if tp.sndNxt == tp.finSeq {
			tp.sndNxt++ // retransmitted FIN advances past its slot again
		}
	}
	if seqGT(tp.sndNxt, tp.sndMax) {
		tp.sndMax = tp.sndNxt
		// Time this transmission for RTT if nothing is being timed.
		if !tp.rttTiming && length > 0 {
			tp.rttTiming = true
			tp.rttStart = st.now()
			tp.rttSeq = tp.sndNxt
		}
	}

	// Arm the retransmit timer for anything that needs acknowledgement.
	if (length > 0 || flags&(flagSYN|flagFIN) != 0) && !tp.force {
		if tp.timers[timerRexmt] == 0 {
			tp.timers[timerRexmt] = tp.rexmtTicks()
			tp.timers[timerPersist] = 0
		}
	}

	// Record the advertised window edge and clear pending-ACK state.
	if rwin > 0 && seqGT(tp.rcvNxt+rwin, tp.rcvAdv) {
		tp.rcvAdv = tp.rcvNxt + rwin
	}
	tp.ackNow = false
	tp.delAck = false

	st.ipOutput(t, true, wire.ProtoTCP, s.remote.IP, seg, length, wire.TCPChecksumOffset)
}

// tcpRespond emits a bare control segment (ACK or RST) that is not
// associated with queued data (tcp_respond).
func (st *Stack) tcpRespond(t *sim.Proc, local, remote Addr, seq, ack uint32, flags uint8) {
	hdr := wire.TCPHeader{
		SrcPort: local.Port,
		DstPort: remote.Port,
		Seq:     seq,
		Ack:     ack,
		Flags:   flags,
	}
	if flags&flagACK == 0 {
		hdr.Ack = 0
	}
	st.charge(t, true, costs.CompTransportOutput, 0)
	st.Stats.TCPOut.Inc()
	seg := mbuf.New()
	hdr.Marshal(seg.Prepend(hdr.HeaderLen()))
	st.ipOutput(t, true, wire.ProtoTCP, remote.IP, seg, 0, wire.TCPChecksumOffset)
}
