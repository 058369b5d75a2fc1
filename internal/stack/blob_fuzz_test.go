package stack_test

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/wire"
)

// FuzzSessionBlob: the OS server imports whatever blob Check accepts from
// an untrusted library. Starting from a real export, fuzz the fields a
// library controls (sequence numbers as offsets from their exported
// values) and the queue lengths; an accepted blob must import into the
// server stack and run a few virtual seconds, with its application
// reading and writing and a live peer on the far end, without a panic.
func FuzzSessionBlob(f *testing.F) {
	f.Add(uint8(6), int32(0), int32(0), int32(0), int32(0), uint32(8192), uint32(1460), int32(0), int32(0), int32(0),
		int32(1460), uint16(100), uint16(20), uint8(1), int32(40), uint16(10), int32(8192), int32(8192), 0.0, uint8(0))
	f.Add(uint8(6), int32(0), int32(0), int32(5000), int32(0), uint32(65535), uint32(65535), int32(0), int32(0), int32(0),
		int32(536), uint16(100), uint16(0), uint8(0), int32(-10), uint16(30), int32(8192), int32(8192), 0.0, uint8(0x23))
	f.Add(uint8(12), int32(-7), int32(9), int32(0), int32(3), uint32(0), uint32(0), int32(1), int32(-1), int32(2),
		int32(1), uint16(0), uint16(9000), uint8(0), int32(0), uint16(0), int32(-1), int32(0), -1.0, uint8(0xff))
	f.Fuzz(func(t *testing.T, state uint8, dUna, dNxt, dMax, dUp int32, sndWnd, cwnd uint32, dRcvNxt, dRcvAdv, dFin int32,
		mss int32, sndLen, rcvLen uint16, oobLen uint8, reasmOff int32, reasmLen uint16, sndBuf, rcvBuf int32, srtt float64, flags uint8) {
		importForged(t, func(ss *stack.TCPSessionState) {
			ss.State = int(state%16) - 2
			ss.SndUna += uint32(dUna)
			ss.SndNxt += uint32(dNxt)
			ss.SndMax += uint32(dMax)
			ss.SndUp += uint32(dUp)
			ss.SndWnd, ss.Cwnd = sndWnd, cwnd
			ss.RcvNxt += uint32(dRcvNxt)
			ss.RcvAdv += uint32(dRcvAdv)
			ss.FinSeq += uint32(dFin)
			ss.MSS = int(mss)
			ss.SndQ.Release()
			ss.SndQ.AppendBytes(make([]byte, sndLen))
			ss.RcvQ.Release()
			ss.RcvQ.AppendBytes(make([]byte, rcvLen))
			ss.OOB = make([]byte, oobLen)
			ss.Reasm = append(ss.Reasm, stack.ReasmSegState{Seq: ss.RcvNxt + uint32(reasmOff), Fin: flags&1 != 0})
			ss.Reasm[len(ss.Reasm)-1].Data.AppendBytes(make([]byte, reasmLen))
			ss.SndBufSize, ss.RcvBufSize = int(sndBuf), int(rcvBuf)
			ss.SRTT = srtt
			bit := func(i uint) bool { return flags&(1<<i) != 0 }
			ss.FinSent, ss.SawFin, ss.RdShut, ss.WrShut = bit(1), bit(2), bit(3), bit(4)
			ss.AckPending, ss.NoDelay, ss.KeepAlive = bit(5), bit(6), bit(7)
		})
	})
}

// importForged exports the server side of a fresh connection, lets forge
// edit the blob, and imports it if Check accepts it.
func importForged(t *testing.T, forge func(*stack.TCPSessionState)) {
	w := newWorld(1)
	defer w.s.Close()
	srv := stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}
	w.s.Spawn("server", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: srv.Port})
		w.b.st.Listen(ls, 1)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(20 * time.Millisecond) // the peer's first bytes arrive unread
		ss := new(stack.TCPSessionState)
		if err := w.b.st.ExportTCPSession(p, cs, ss); err != nil {
			t.Error(err)
			return
		}
		forge(ss)
		if ss.Check(cs.LocalAddr(), cs.RemoteAddr()) != nil {
			ss.Release()
			return
		}
		s := w.b.st.ImportTCPSession(p, ss)
		buf := make([]byte, 512)
		for range 8 {
			n, _, _, err := w.b.st.Recv(p, s, buf, stack.RecvOpts{})
			if err != nil || n == 0 {
				break
			}
			if _, err := w.b.st.Send(p, s, [][]byte{buf[:n]}, stack.SendOpts{}); err != nil {
				break
			}
		}
		w.b.st.Close(p, s)
	})
	w.s.Spawn("peer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, srv); err != nil {
			t.Error(err)
			return
		}
		w.s.Spawn("peer.rx", func(p *sim.Proc) {
			buf := make([]byte, 512)
			for {
				if n, _, _, err := w.a.st.Recv(p, s, buf, stack.RecvOpts{}); err != nil || n == 0 {
					return
				}
			}
		})
		msg := make([]byte, 300)
		for range 10 {
			if _, err := w.a.st.Send(p, s, [][]byte{msg}, stack.SendOpts{}); err != nil {
				break
			}
			p.Sleep(100 * time.Millisecond)
		}
		w.a.st.Close(p, s)
	})
	if err := w.s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}
