package stack

import (
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/trace"
)

// tcpFastTimo runs every 200 ms and flushes delayed ACKs
// (tcp_fasttimo).
func (st *Stack) tcpFastTimo(t *sim.Proc) {
	for _, s := range st.timerWalk() {
		tp := s.tcb
		if tp != nil && tp.delAck {
			tp.delAck = false
			tp.ackNow = true
			st.tcpOutput(t, tp)
		}
	}
}

// tcpSlowTimo runs every 500 ms, decrementing the per-connection timer
// counters and firing expirations (tcp_slowtimo).
func (st *Stack) tcpSlowTimo(t *sim.Proc) {
	for _, s := range st.timerWalk() {
		tp := s.tcb
		if tp == nil || tp.state == tcpClosed || tp.state == tcpListen {
			continue
		}
		// Keepalive idle tracking.
		if s.keepAlive && tp.state == tcpEstablished {
			tp.idleTicks++
			if tp.timers[timerKeep] == 0 && tp.idleTicks >= tcpKeepIdleTicks {
				tp.timers[timerKeep] = 1 // fire on the next tick below
			}
		}
		for i := 0; i < numTimers; i++ {
			if tp.timers[i] > 0 {
				tp.timers[i]--
				if tp.timers[i] == 0 {
					st.tcpTimerFired(t, tp, i)
					if tp.state == tcpClosed {
						break
					}
				}
			}
		}
	}
}

// fastTickIdle reports whether a fast tick would be a no-op: the timers
// run, the protocol lock is free with no waiter, and no delayed ACK is
// pending.
func (st *Stack) fastTickIdle() bool {
	if st.timersStopped || !st.mu.Idle() {
		return false
	}
	for _, s := range st.socks {
		if s.tcb != nil && s.tcb.delAck {
			return false
		}
	}
	return true
}

// slowTickIdle reports whether a slow tick would be a no-op: the timers
// run, the lock is idle, no fragment is held, arp (if any) has no entry
// to age, and no connection tcpSlowTimo visits has a timer armed or
// keepalive idle tracking to advance.
func (st *Stack) slowTickIdle(arp *arpEngine) bool {
	if st.timersStopped || !st.mu.Idle() || arp != nil && len(arp.entries) > 0 {
		return false
	}
	for _, r := range st.reasms {
		if len(r.held) > 0 {
			return false
		}
	}
	for _, s := range st.socks {
		tp := s.tcb
		if tp == nil || tp.state == tcpClosed || tp.state == tcpListen {
			continue
		}
		if s.keepAlive && tp.state == tcpEstablished {
			return false
		}
		for _, n := range tp.timers {
			if n > 0 {
				return false
			}
		}
	}
	return true
}

// timerWalk snapshots the sockets under management, in creation order.
func (st *Stack) timerWalk() []*Socket {
	st.timoSocks = append(st.timoSocks[:0], st.socks...)
	return st.timoSocks
}

func (st *Stack) tcpTimerFired(t *sim.Proc, tp *tcpcb, which int) {
	switch which {
	case timerRexmt:
		st.tcpRexmtTimo(t, tp)
	case timerPersist:
		// Probe the zero window, then re-arm with backoff.
		st.Stats.TCPRexmit.Inc()
		if st.traceOn() {
			st.traceEmit(trace.EvTCPRexmit, tp.connName(), "persist", int64(tp.rexmtShift), 0, 0)
		}
		tp.force = true
		st.tcpOutput(t, tp)
		tp.force = false
		tp.setPersist()
	case timerKeep:
		if tp.state < tcpEstablished {
			// Connection-establishment timeout: a handshake that never
			// completes gives up.
			tp.drop(t, socketapi.ErrTimedOut)
			return
		}
		// SO_KEEPALIVE probing on an established, idle connection.
		if tp.sock.keepAlive && tp.state == tcpEstablished {
			if tp.idleTicks < tcpKeepIdleTicks {
				return // traffic resumed; slowTimo re-arms when idle again
			}
			if tp.keepProbes >= tcpKeepMaxProbes {
				tp.drop(t, socketapi.ErrTimedOut)
				return
			}
			tp.keepProbes++
			// A keepalive probe is an ACK for one byte below the window,
			// which forces the peer to re-ACK (tcp_timers TCPT_KEEP).
			st.tcpRespond(t, tp.sock.local, tp.sock.remote, tp.sndUna-1, tp.rcvNxt, flagACK)
			tp.timers[timerKeep] = tcpKeepIntvlTicks
		}
	case timer2MSL:
		if tp.state == tcpTimeWait || tp.state == tcpFinWait2 {
			tp.close(t)
		}
	}
}

// tcpRexmtTimo retransmits the oldest unacknowledged segment with
// exponential backoff (tcp_timers TCPT_REXMT case).
func (st *Stack) tcpRexmtTimo(t *sim.Proc, tp *tcpcb) {
	tp.rexmtShift++
	if tp.rexmtShift > tcpMaxRexmits {
		tp.drop(t, socketapi.ErrTimedOut)
		return
	}
	st.Stats.TCPRexmit.Inc()
	if st.traceOn() {
		st.traceEmit(trace.EvTCPRexmit, tp.connName(), "rto", int64(tp.rexmtShift), 0, 0)
	}
	tp.timers[timerRexmt] = tp.rexmtTicks()

	// Karn: do not sample RTT across a retransmission.
	tp.rttTiming = false

	// Congestion response: close to one segment, remember half the pipe.
	win := tp.sndWnd
	if tp.cwnd < win {
		win = tp.cwnd
	}
	half := win / 2
	if half < 2*uint32(tp.effMSS()) {
		half = 2 * uint32(tp.effMSS())
	}
	tp.ssthresh = half
	tp.cwnd = uint32(tp.effMSS())
	tp.cwndAcked = 0
	tp.dupAcks = 0
	tp.traceCwnd()

	tp.sndNxt = tp.sndUna
	st.tcpOutput(t, tp)
}

// setPersist arms the persist timer with backoff (tcp_setpersist).
func (tp *tcpcb) setPersist() {
	base := int(tp.srtt/float64(500_000_000)) + 2 // srtt in slow ticks, min 1s
	shift := tp.rexmtShift
	if shift > tcpMaxPersistIdx {
		shift = tcpMaxPersistIdx
	}
	ticks := base * tcpBackoff[shift]
	if ticks < tcpMinRexmtTicks {
		ticks = tcpMinRexmtTicks
	}
	if ticks > tcpMaxRexmtTicks {
		ticks = tcpMaxRexmtTicks
	}
	tp.timers[timerPersist] = ticks
	if tp.rexmtShift < tcpMaxRexmits {
		tp.rexmtShift++
	}
}
