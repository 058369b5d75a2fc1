package stack

import "fmt"

// Views of unexported state for the package's external tests: the
// wedge diagnostics of debug_loss_test.go, and a socket's control
// blocks.

// ControlBlocks returns the control block s runs on (nil before its
// first open) and whether the one allocated with it is still unused.
func ControlBlocks(s *Socket) (tcb any, spare bool) {
	if s.tcb != nil {
		tcb = s.tcb
	}
	return tcb, s.spare != nil
}

// DebugTCB renders a TCP socket's control-block state for diagnostics.
func DebugTCB(s *Socket) string {
	if s == nil || s.tcb == nil {
		return "<no tcb>"
	}
	tp := s.tcb
	return fmt.Sprintf(
		"%s una=%d nxt=%d max=%d (rel una=%d nxt=%d) sndWnd=%d cwnd=%d ssthresh=%d dupAcks=%d rcvNxt(rel)=%d rcvAdv(rel)=%d sndQ=%d rcvQ=%d reasm=%d timers=%v shift=%d finSent=%v finSeq=%d sawFin=%v force=%v ackNow=%v delAck=%v",
		tp.state, tp.sndUna, tp.sndNxt, tp.sndMax,
		tp.sndUna-tp.iss, tp.sndNxt-tp.iss,
		tp.sndWnd, tp.cwnd, tp.ssthresh, tp.dupAcks,
		tp.rcvNxt-tp.irs, tp.rcvAdv-tp.irs,
		s.snd.len(), s.rcv.len(), len(tp.reasm), tp.timers, tp.rexmtShift,
		tp.finSent, tp.finSeq, tp.sawFin, tp.force, tp.ackNow, tp.delAck)
}

// DebugWaiters reports how many threads are parked on each socket buffer
// condition (diagnostics).
func DebugWaiters(s *Socket) string {
	if s == nil {
		return "<nil>"
	}
	rw, sw := -1, -1
	if s.rcv != nil {
		rw = s.rcv.cond.Waiters()
	}
	if s.snd != nil {
		sw = s.snd.cond.Waiters()
	}
	return fmt.Sprintf("rcvWaiters=%d sndWaiters=%d closed=%v err=%v rdShut=%v wrShut=%v", rw, sw, s.closed, s.err, s.rdShut, s.wrShut)
}
