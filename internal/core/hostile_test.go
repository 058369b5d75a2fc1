package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/socketapi"
	"repro/internal/stack"
	"repro/internal/wire"
)

// TestReturnRejectsForeignTuple hands the OS server what an untrusted
// library could: a migration blob naming another session's 4-tuple, or
// one no export can produce. The server must refuse it before touching a
// table — the attacker's session stays where it was — and the victim, a
// session the server manages on the same host, keeps working. Through
// the death notice the same blob must not be installed either.
func TestReturnRejectsForeignTuple(t *testing.T) {
	cases := map[string]func(blob *stack.TCPSessionState, victim *session){
		"foreign tuple":     func(b *stack.TCPSessionState, v *session) { b.Local, b.Remote = v.local, v.remote },
		"state below range": func(b *stack.TCPSessionState, _ *session) { b.State = -1 },
		"state above range": func(b *stack.TCPSessionState, _ *session) { b.State = 11 },
		"pre-established":   func(b *stack.TCPSessionState, _ *session) { b.State = 2 },
		"no mss":            func(b *stack.TCPSessionState, _ *session) { b.MSS = 0 },
	}
	for name, forge := range cases {
		for _, death := range []bool{false, true} {
			sub := name + "/return"
			if death {
				sub = name + "/death"
			}
			t.Run(sub, func(t *testing.T) { hostileReturn(t, forge, death) })
		}
	}
}

func hostileReturn(t *testing.T, forge func(*stack.TCPSessionState, *session), death bool) {
	s := sim.New(21)
	s.Deadline = sim.Time(time.Minute)
	seg := simnet.NewSegment(s)
	a := New(kern.NewHost(s, seg, "A", wire.MAC{1}, wire.IP(10, 0, 0, 1), costs.DECLibrarySHMIPF()), costs.DECServerUX())
	b := New(kern.NewHost(s, seg, "B", wire.MAC{2}, wire.IP(10, 0, 0, 2), costs.DECLibrarySHMIPF()), costs.DECServerUX())
	srv := a.Server
	echo, victim, attacker := b.NewLibrary("echo"), a.NewLibrary("victim"), a.NewLibrary("attacker")
	peer := socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 7}

	s.SpawnDaemon("echo", func(p *sim.Proc) {
		ls, _ := echo.Socket(p, socketapi.SockStream)
		echo.Bind(p, ls, socketapi.SockAddr{Port: peer.Port})
		echo.Listen(p, ls, 2)
		for {
			fd, _, err := echo.Accept(p, ls)
			if err != nil {
				return
			}
			s.SpawnDaemon("echo.conn", func(p *sim.Proc) {
				buf := make([]byte, 64)
				for {
					n, err := echo.Recv(p, fd, buf, 0)
					if err != nil || n == 0 {
						return
					}
					echo.Send(p, fd, buf[:n], 0)
				}
			})
		}
	})
	s.Spawn("hosts", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond) // the listener is three proxy calls away
		vfd, _ := victim.Socket(p, socketapi.SockStream)
		xfd, _ := attacker.Socket(p, socketapi.SockStream)
		if err := errors.Join(victim.Connect(p, vfd, peer), attacker.Connect(p, xfd, peer)); err != nil {
			t.Error(err)
			return
		}
		// The victim's session goes back to the server (as for a fork), so
		// its socket sits in the server stack's tables under its 4-tuple.
		ve, _ := victim.Lookup(vfd)
		if err := victim.giveBack(p, ve, false); err != nil {
			t.Error(err)
			return
		}
		// The attacker's blob carries bytes: an echo it never read, and a
		// send still unacknowledged.
		attacker.Send(p, xfd, []byte("echoed"), 0)
		p.Sleep(50 * time.Millisecond)
		attacker.Send(p, xfd, []byte("unacked"), 0)
		xe, _ := attacker.Lookup(xfd)
		xid := sessOf(xe).id
		attacker.quiesce(p)
		blob := new(stack.TCPSessionState)
		if err := attacker.St.ExportTCPSession(p, xe.Sock, blob); err != nil {
			t.Error(err)
			return
		}
		if blob.RcvQ.Len() == 0 || blob.SndQ.Len() == 0 {
			t.Errorf("blob holds %d unread and %d unsent bytes, want both", blob.RcvQ.Len(), blob.SndQ.Len())
		}
		forge(blob, srv.sessions[sessOf(ve).id])

		if death {
			srv.svc.Call(p, func(on *sim.Proc) { srv.deathNotice(on, attacker, []orphan{{xid, blob}}, nil) })
			if _, live := srv.sessions[xid]; live || srv.OrphansAborted.Value() != 1 {
				t.Errorf("dead library's session not reaped (live=%v, aborted=%d)", live, srv.OrphansAborted.Value())
			}
		} else {
			var err error
			attacker.cross(p, opReturn, blob.WireSize(), func(on *sim.Proc) { _, err = srv.proxyReturn(on, xid, blob, false) })
			if !errors.Is(err, socketapi.ErrInvalid) {
				t.Errorf("proxy_return of a forged blob = %v, want EINVAL", err)
			}
			if xs := srv.sessions[xid]; xs.state != libOwned || xs.ep == nil || srv.Returns.Value() != 1 {
				t.Errorf("refused return still moved the session (state=%v, ep=%v, returns=%d)", xs.state, xs.ep, srv.Returns.Value())
			}
		}
		if n := len(srv.St.SocketTable()); n != 1 {
			t.Errorf("server stack holds %d sockets, want the victim's alone", n)
			return // the victim's echo below would wait for ever
		}
		if n := blob.WireSize(); n != 120 {
			t.Errorf("the refused blob still holds %d bytes", n-120)
		}
		// The refused blob's storage went back to the pools (poisoned
		// under -race): the victim's echo, queued in storage taken from
		// them since, must come back intact.
		ping := make([]byte, 2000)
		for i := range ping {
			ping[i] = byte(i)
		}
		if _, err := victim.Send(p, vfd, ping, 0); err != nil {
			t.Errorf("victim send: %v", err)
		}
		var echoed []byte
		buf := make([]byte, 512)
		for len(echoed) < len(ping) {
			n, err := victim.Recv(p, vfd, buf, 0)
			if err != nil || n == 0 {
				t.Errorf("victim echo ended after %d bytes: %v", len(echoed), err)
				return
			}
			echoed = append(echoed, buf[:n]...)
		}
		if !bytes.Equal(echoed, ping) {
			t.Error("victim echo came back corrupted")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
