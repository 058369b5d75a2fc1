package stack

import (
	"errors"
	"fmt"

	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/wire"
)

// This file implements session migration, the heart of the paper's
// protocol decomposition: once the operating-system server establishes a
// connection, its entire protocol state — the TCP state variables plus
// any unacknowledged or undelivered data — is packaged up and moved into
// the application's protocol library, which manages the session until an
// exceptional operation (close, fork, process death) migrates it back.
//
// Both stacks share one address space here, so the session moves by
// reference: the blob takes the exporting socket's chains, and the
// detached socket's storage with them, and the importing stack
// re-initialises that storage as its new socket and hands it the
// chains. Nobody reads those bytes until the other stack sends or
// delivers them. The migration RPC is still priced as the copy a real
// one makes (WireSize).

// ReasmSegState is one out-of-order segment captured by a migration.
type ReasmSegState struct {
	Seq  uint32
	Data mbuf.Chain
	Fin  bool
}

// TCPSessionState is the protocol state of one TCP session in flight
// between the OS server and a protocol library. It owns its queues from
// export until import, or until Release hands a refused blob's storage
// back. The blob itself belongs to whoever passed it to the export, who
// may fill it again once an import or Release has emptied it.
type TCPSessionState struct {
	Local, Remote      Addr
	RdShut, WrShut     bool
	NoDelay, KeepAlive bool

	State int // tcpState

	SndUna, SndNxt, SndMax uint32
	SndWnd, SndUp          uint32
	SndWl1, SndWl2, ISS    uint32
	RcvNxt, RcvUp          uint32
	IRS, RcvAdv            uint32
	Cwnd, Ssthresh         uint32
	FinSeq                 uint32
	FinSent, SawFin        bool
	AckPending             bool // an ACK was owed (delayed or immediate) at export
	SRTT, RTTVar           float64
	MSS                    int

	SndQ  mbuf.Chain // bytes in the send buffer (unacked + unsent)
	RcvQ  mbuf.Chain // bytes received but not yet read by the application
	OOB   []byte
	Reasm []ReasmSegState

	SndBufSize, RcvBufSize int

	// sock is the detached socket's storage, which the import makes its
	// new socket; nil when a thread still waited on it at export.
	sock *Socket
}

// WireSize estimates the bytes moved by the migration RPC, used to charge
// its cost.
func (ss *TCPSessionState) WireSize() int {
	n := 120 + ss.SndQ.Len() + ss.RcvQ.Len() + len(ss.OOB)
	for i := range ss.Reasm {
		n += 8 + ss.Reasm[i].Data.Len()
	}
	return n
}

// Release hands the queued bytes of a blob that will not be imported
// back to mbuf's pools and drops the socket storage it carries, leaving
// it empty. A nil blob holds nothing.
func (ss *TCPSessionState) Release() {
	if ss == nil {
		return
	}
	ss.SndQ.Release()
	ss.RcvQ.Release()
	for i := range ss.Reasm {
		ss.Reasm[i].Data.Release()
	}
	ss.Reasm, ss.OOB, ss.sock = nil, nil, nil
}

// Check reports whether ss can be installed as the session local↔remote.
// The OS server asks before importing what a library hands back: the
// library is untrusted, and ImportTCPSession files the socket under
// whatever endpoints the blob names. ErrInvalid for no blob, another
// session's 4-tuple, a state no export produces (ExportTCPSession refuses
// anything before ESTABLISHED) or an MSS tcp_output cannot segment by.
func (ss *TCPSessionState) Check(local, remote Addr) error {
	if ss == nil || ss.Local != local || ss.Remote != remote || ss.MSS <= 0 ||
		tcpState(ss.State) < tcpEstablished || tcpState(ss.State) > tcpTimeWait {
		return socketapi.ErrInvalid
	}
	return nil
}

// ExportTCPSession captures a connection's state into ss and detaches
// it from this stack: the socket stops demultiplexing here, its timers
// go dead, its queues move into ss (leaving the socket's empty), and
// the caller is expected to hand ss to another stack. Unless a thread
// waits on the socket, ss carries its storage too, and the import
// makes that storage its socket: a pointer the exporter keeps then
// names the importer's live socket. ss is the
// caller's and must hold nothing (a new blob, or one an import or
// Release emptied); it is left untouched if the export fails. The
// socket's port reservation is NOT released — in the decomposed
// architecture the namespace entry belongs to the OS server for the
// session's whole lifetime.
func (st *Stack) ExportTCPSession(t *sim.Proc, s *Socket, ss *TCPSessionState) error {
	st.lock(t)
	defer st.unlock()
	tp := s.tcb
	if tp == nil || tp.state < tcpEstablished {
		return fmt.Errorf("stack: cannot migrate %s session", TCPStateOf(s))
	}
	*ss = TCPSessionState{
		Local: s.local, Remote: s.remote,
		State:  int(tp.state),
		SndUna: tp.sndUna, SndNxt: tp.sndNxt, SndMax: tp.sndMax,
		SndWnd: tp.sndWnd, SndUp: tp.sndUp,
		SndWl1: tp.sndWl1, SndWl2: tp.sndWl2, ISS: tp.iss,
		RcvNxt: tp.rcvNxt, RcvUp: tp.rcvUp,
		IRS: tp.irs, RcvAdv: tp.rcvAdv,
		Cwnd: tp.cwnd, Ssthresh: tp.ssthresh,
		SRTT: tp.srtt, RTTVar: tp.rttvar,
		MSS:     tp.mss,
		FinSent: tp.finSent, FinSeq: tp.finSeq, SawFin: tp.sawFin,
		AckPending: tp.delAck || tp.ackNow,
		OOB:        s.oob,
		SndBufSize: s.sndbufSize, RcvBufSize: s.rcvbufSize,
		NoDelay: s.noDelay, KeepAlive: s.keepAlive,
		RdShut: s.rdShut, WrShut: s.wrShut,
	}
	ss.SndQ.AppendChain(&s.snd.data)
	ss.RcvQ.AppendChain(&s.rcv.data)
	s.oob = nil
	ss.Reasm = make([]ReasmSegState, len(tp.reasm))
	for i := range tp.reasm {
		r := &tp.reasm[i]
		ss.Reasm[i].Seq, ss.Reasm[i].Fin = r.seq, r.fin
		ss.Reasm[i].Data.AppendChain(&r.data)
	}
	tp.reasm = tp.reasm[:0]
	// Detach without releasing the port.
	s.portReserved = false
	tp.setState(tcpClosed)
	for i := range tp.timers {
		tp.timers[i] = 0
	}
	st.deregister(s)
	if !s.waitedOn() {
		ss.sock = s
	} else {
		s.err = ErrMoved // for its waiters, once WakeMoved runs
	}
	return nil
}

// ErrMoved is the answer of a call that was blocked on a socket when its
// session was exported: the caller finishes the call where the session
// went. Unlike other socket errors it is never consumed, so every
// waiter sees it.
var ErrMoved = errors.New("stack: session moved while the call waited")

// WakeMoved wakes the threads blocked on s if s stayed on this stack
// when its session was exported (see ErrMoved). A caller runs it once
// the calls it wakes can reach the session's new place. It takes no
// lock: a broadcast never yields.
func (st *Stack) WakeMoved(s *Socket) {
	if s.st == st && s.err == ErrMoved {
		s.rcv.cond.Broadcast()
		s.snd.cond.Broadcast()
	}
}

// ImportTCPSession installs a migrated session into this stack, returning
// the socket that now manages it: the storage the blob carries, made
// new, or a new socket if it carries none. The socket takes the blob's
// queues and storage, leaving it empty: a blob's bytes are installed at
// most once. Packet-filter redirection is the caller's responsibility.
func (st *Stack) ImportTCPSession(t *sim.Proc, ss *TCPSessionState) *Socket {
	st.lock(t)
	defer st.unlock()
	s := ss.sock
	ss.sock = nil
	if s != nil {
		s = st.tcpSocketIn(s, s.snd, s.rcv, s.tcb)
	} else {
		s = st.newSocket(wire.ProtoTCP)
	}
	s.local, s.remote = ss.Local, ss.Remote
	s.sndbufSize, s.rcvbufSize = ss.SndBufSize, ss.RcvBufSize
	s.snd.hiwat, s.rcv.hiwat = ss.SndBufSize, ss.RcvBufSize
	s.noDelay = ss.NoDelay
	s.keepAlive = ss.KeepAlive
	s.rdShut, s.wrShut = ss.RdShut, ss.WrShut
	s.oob, ss.OOB = ss.OOB, nil
	s.snd.data.AppendChain(&ss.SndQ)
	s.rcv.data.AppendChain(&ss.RcvQ)

	tp := newTCPCB(st, s)
	s.tcb = tp
	tp.setState(tcpState(ss.State))
	tp.sndUna, tp.sndNxt, tp.sndMax = ss.SndUna, ss.SndNxt, ss.SndMax
	tp.sndWnd, tp.sndUp = ss.SndWnd, ss.SndUp
	tp.sndWl1, tp.sndWl2, tp.iss = ss.SndWl1, ss.SndWl2, ss.ISS
	tp.rcvNxt, tp.rcvUp = ss.RcvNxt, ss.RcvUp
	tp.irs, tp.rcvAdv = ss.IRS, ss.RcvAdv
	tp.cwnd, tp.ssthresh = ss.Cwnd, ss.Ssthresh
	tp.srtt, tp.rttvar = ss.SRTT, ss.RTTVar
	tp.mss = ss.MSS
	tp.finSent, tp.finSeq, tp.sawFin = ss.FinSent, ss.FinSeq, ss.SawFin
	for i := range ss.Reasm {
		r := &ss.Reasm[i]
		tp.insertReasm(r.Seq, r.Data, r.Fin)
		r.Data = mbuf.Chain{}
	}
	ss.Reasm = nil

	st.file(st.conns, tuple{wire.ProtoTCP, s.local, s.remote}, s)

	// Re-arm the retransmit timer if data is in flight, and continue the
	// close handshake if one was interrupted mid-migration. An ACK the
	// exporting stack still owed the peer (its delayed-ACK timer died
	// with the export) is sent immediately — otherwise the peer's Nagle
	// algorithm deadlocks against our silence until its RTO fires.
	if tp.sndMax != tp.sndUna {
		tp.timers[timerRexmt] = tp.rexmtTicks()
	}
	tp.ackNow = ss.AckPending
	if tp.state == tcpTimeWait {
		tp.canonTimeWait()
	}
	st.tcpOutput(t, tp)
	return s
}

// AdoptUDPSession creates a UDP socket whose endpoint naming was done by
// the OS server (the library side of a migrated UDP session). No state
// variables exist for UDP; only the binding moves.
func (st *Stack) AdoptUDPSession(local, remote Addr) *Socket {
	s := st.newSocket(wire.ProtoUDP)
	s.local = local
	if remote.IsZero() {
		st.file(st.binds, tuple{wire.ProtoUDP, s.local, Addr{}}, s)
	} else {
		s.remote = remote
		st.file(st.conns, tuple{wire.ProtoUDP, s.local, s.remote}, s)
	}
	return s
}

// DropUDPSession detaches a UDP socket without releasing its
// server-owned port.
func (st *Stack) DropUDPSession(s *Socket) {
	s.portReserved = false
	st.deregister(s)
}
