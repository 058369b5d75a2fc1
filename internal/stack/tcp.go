package stack

import (
	"fmt"
	"time"

	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tcpState follows the BSD ordering so that `state >= tcpEstablished`
// means "connection exists" and `state > tcpCloseWait` means "our FIN has
// been queued or sent".
type tcpState int

const (
	tcpClosed tcpState = iota
	tcpListen
	tcpSynSent
	tcpSynRcvd
	tcpEstablished
	tcpCloseWait
	tcpFinWait1
	tcpClosing
	tcpLastAck
	tcpFinWait2
	tcpTimeWait
)

var tcpStateNames = [...]string{
	"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"CLOSE_WAIT", "FIN_WAIT_1", "CLOSING", "LAST_ACK", "FIN_WAIT_2", "TIME_WAIT",
}

func (s tcpState) String() string {
	if int(s) < len(tcpStateNames) {
		return tcpStateNames[s]
	}
	return fmt.Sprintf("tcpState(%d)", int(s))
}

// Sequence-space arithmetic (RFC 793 modular comparisons).
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }
func seqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }

// Timer slots, BSD-style tick counters decremented by the 500 ms slow
// timeout.
const (
	timerRexmt = iota
	timerPersist
	timerKeep
	timer2MSL
	numTimers
)

const (
	slowHz = 2 // slow timer ticks per second

	tcpDefaultMSS = 1460 // Ethernet MTU - IP - TCP headers
	// tsoMaxPayload caps a TSO super-segment's payload at eight MSS, the
	// engine's offload.DefaultTSOMax.
	tsoMaxPayload = 8 * tcpDefaultMSS

	// BSD Net/2 timer values, in slow ticks.
	tcpMinRexmtTicks = 2   // 1 s
	tcpMaxRexmtTicks = 128 // 64 s
	tcpMaxRexmits    = 12  // then ETIMEDOUT
	tcpMSLTicks      = 60  // 30 s MSL
	tcpKeepInitTicks = 150 // 75 s connection-establishment timeout
	tcpMaxPersistIdx = 10  // persist backoff cap

	// Keepalive values, compressed from BSD's two hours the way the
	// simulation compresses other idle-state lifetimes: probe after 60 s
	// of idleness, every 10 s, giving up after 8 unanswered probes.
	tcpKeepIdleTicks  = 120
	tcpKeepIntvlTicks = 20
	tcpKeepMaxProbes  = 8
)

var tcpBackoff = [tcpMaxRexmits + 1]int{1, 2, 4, 8, 16, 32, 64, 64, 64, 64, 64, 64, 64}

// reasmSeg is one out-of-order segment held for reassembly.
type reasmSeg struct {
	seq  uint32
	fin  bool
	data mbuf.Chain
}

// tcpcb is the TCP control block (struct tcpcb).
type tcpcb struct {
	st   *Stack
	sock *Socket

	state tcpState

	// Send sequence space.
	sndUna uint32 // oldest unacknowledged
	sndNxt uint32 // next to send
	sndMax uint32 // highest sent
	sndWnd uint32 // peer's advertised window
	sndUp  uint32 // urgent pointer
	sndWl1 uint32 // seq of last window update segment
	sndWl2 uint32 // ack of last window update segment
	iss    uint32

	// Receive sequence space.
	rcvNxt uint32
	rcvWnd uint32
	rcvUp  uint32
	irs    uint32
	rcvAdv uint32 // highest advertised window edge

	// Congestion control.
	cwnd      uint32
	ssthresh  uint32
	cwndAcked uint32 // bytes ACKed toward the next avoidance increment (RFC 3465)
	dupAcks   int

	// Round-trip timing (Jacobson/Karn).
	srtt     float64 // smoothed RTT, ns
	rttvar   float64 // smoothed mean deviation, ns
	rttStart sim.Time

	// Timers (slow ticks; 0 = off).
	timers     [numTimers]int
	rexmtShift int

	mss int

	// Keepalive bookkeeping (SO_KEEPALIVE).
	idleTicks  int // slow ticks since the last segment from the peer
	keepProbes int

	// Flags.
	ackNow      bool // send an ACK immediately
	delAck      bool // an ACK is owed (fast timer will flush)
	force       bool // persist probe / urgent push in progress
	finSent     bool
	finSeq      uint32
	sawFin      bool // peer's FIN has been received (in order)
	forceUrgent bool
	rttTiming   bool   // a segment is being timed (rttStart, rttSeq)
	rttSeq      uint32 // here rather than beside rttStart, in the flags' padding

	reasm []reasmSeg

	// txc is the scratch chain segments are assembled in; ipOutput
	// consumes and empties it, so every send reuses the same chain and
	// its pooled segments.
	txc mbuf.Chain
}

// newTCPCB returns a fresh control block for s: the one allocated with
// the socket the first time, a new one only when s opens again after a
// failed connect.
func newTCPCB(st *Stack, s *Socket) *tcpcb {
	tp := s.spare
	if tp == nil {
		tp = new(tcpcb)
	}
	s.spare = nil
	*tp = tcpcb{
		st:       st,
		sock:     s,
		state:    tcpClosed,
		mss:      tcpDefaultMSS,
		cwnd:     tcpDefaultMSS,
		ssthresh: 65535,
		reasm:    tp.reasm[:0], // a reused block keeps its queue's array
	}
	return tp
}

// connName renders the connection 4-tuple for trace records.
func (tp *tcpcb) connName() string {
	s := tp.sock
	return fmt.Sprintf("%v:%d>%v:%d", s.local.IP, s.local.Port, s.remote.IP, s.remote.Port)
}

// traceOn is the stack guard, safe on a tcb with no stack attached
// (unit tests build bare control blocks).
func (tp *tcpcb) traceOn() bool { return tp.st != nil && tp.st.traceOn() }

// setState moves the TCP state machine to ns, recording the transition
// on the flight recorder. Every transition after tcb creation goes
// through here; keeping the write in one place is what makes the trace
// a complete state-machine oracle.
func (tp *tcpcb) setState(ns tcpState) {
	if tp.state == ns {
		return
	}
	if tp.traceOn() {
		tp.st.traceEmit(trace.EvTCPState, tp.connName(), tp.state.String()+" -> "+ns.String(), 0, 0, 0)
	}
	tp.state = ns
}

// traceCwnd records a congestion-window sample after any cwnd/ssthresh
// change (growth, fast recovery, RTO collapse).
func (tp *tcpcb) traceCwnd() {
	if tp.st != nil {
		tp.st.mCwnd.Observe(int64(tp.cwnd))
	}
	if tp.traceOn() {
		tp.st.traceEmit(trace.EvTCPCwnd, tp.connName(), "", int64(tp.cwnd), int64(tp.ssthresh), 0)
	}
}

// effMSS applies deployment quirks to the MSS.
func (tp *tcpcb) effMSS() int {
	m := tp.mss
	if q := tp.st.cfg.MaxTCPPayload; q > 0 && m > q {
		m = q
	}
	return m
}

// peerClosed reports whether the peer's FIN has been received and all
// preceding data consumed from the protocol (reader will see EOF after
// draining the receive buffer).
func (tp *tcpcb) peerClosed() bool { return tp.sawFin }

// connect begins an active open. The caller blocks on the socket's
// stateChanged condition.
func (tp *tcpcb) connect(t *sim.Proc) error {
	tp.iss = tp.st.iss()
	tp.sndUna, tp.sndNxt, tp.sndMax = tp.iss, tp.iss, tp.iss
	tp.sndUp = tp.iss
	tp.setState(tcpSynSent)
	tp.timers[timerKeep] = tcpKeepInitTicks
	tp.st.tcpOutput(t, tp)
	return nil
}

// usrClosed moves the state machine forward when the user closes or
// shuts down writing; tcp_output will emit the FIN when the send buffer
// drains.
func (tp *tcpcb) usrClosed(t *sim.Proc) {
	switch tp.state {
	case tcpEstablished:
		tp.setState(tcpFinWait1)
	case tcpCloseWait:
		tp.setState(tcpLastAck)
	case tcpSynRcvd:
		tp.setState(tcpFinWait1)
	}
	tp.st.tcpOutput(t, tp)
}

// drop terminates the connection with an error delivered to the user
// (tcp_drop). It does not send anything.
func (tp *tcpcb) drop(t *sim.Proc, err error) {
	s := tp.sock
	if err != nil {
		s.err = err
	}
	tp.close(t)
}

// close releases the tcb and detaches the socket from the stack
// (tcp_close).
func (tp *tcpcb) close(t *sim.Proc) {
	tp.setState(tcpClosed)
	for i := range tp.timers {
		tp.timers[i] = 0
	}
	for i := range tp.reasm {
		tp.reasm[i].data.Release()
	}
	tp.reasm = tp.reasm[:0]
	s := tp.sock
	tp.st.deregister(s)
	s.stateChanged.Broadcast()
	s.sorwakeup(t, 0)
	s.sowwakeup(t, 0)
	if s.listener != nil {
		s.listener.notify()
	}
}

// sendRST emits a reset for this connection.
func (tp *tcpcb) sendRST(t *sim.Proc) {
	if tp.state == tcpListen || tp.state == tcpClosed {
		return
	}
	tp.st.tcpRespond(t, tp.sock.local, tp.sock.remote, tp.sndNxt, tp.rcvNxt, flagRST|flagACK)
}

// rttUpdate folds a measured round trip into the smoothed estimators
// (Jacobson's algorithm, in nanoseconds rather than ticks).
func (tp *tcpcb) rttUpdate(rtt time.Duration) {
	m := float64(rtt)
	if tp.srtt != 0 {
		delta := m - tp.srtt
		tp.srtt += delta / 8
		if delta < 0 {
			delta = -delta
		}
		tp.rttvar += (delta - tp.rttvar) / 4
	} else {
		tp.srtt = m
		tp.rttvar = m / 2
	}
	tp.rexmtShift = 0
	if tp.st != nil {
		tp.st.mRTT.Observe(int64(rtt))
	}
	if tp.traceOn() {
		tp.st.traceEmit(trace.EvTCPRTT, tp.connName(), "",
			int64(rtt), int64(tp.srtt), int64(tp.rttvar))
	}
}

// rexmtTicks returns the current retransmission timeout in slow ticks,
// with exponential backoff applied.
func (tp *tcpcb) rexmtTicks() int {
	rtoNS := tp.srtt + 4*tp.rttvar
	ticks := int(rtoNS / float64(time.Second/slowHz))
	if ticks < tcpMinRexmtTicks {
		ticks = tcpMinRexmtTicks
	}
	shift := tp.rexmtShift
	if shift > tcpMaxRexmits {
		shift = tcpMaxRexmits
	}
	ticks *= tcpBackoff[shift]
	if ticks > tcpMaxRexmtTicks {
		ticks = tcpMaxRexmtTicks
	}
	return ticks
}

// State exposes the connection state name for diagnostics and tests.
func (tp *tcpcb) State() tcpState { return tp.state }

// TCPStateOf reports the state name of a TCP socket ("CLOSED" for
// sockets without a control block). Exported for tests and diagnostics.
func TCPStateOf(s *Socket) string {
	if s.tcb == nil {
		return "CLOSED"
	}
	return s.tcb.state.String()
}

// TCP header flag aliases (local names to keep segment-building code
// readable).
const (
	flagFIN = 0x01
	flagSYN = 0x02
	flagRST = 0x04
	flagPSH = 0x08
	flagACK = 0x10
	flagURG = 0x20
)
