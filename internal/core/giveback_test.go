package core

import (
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

// TestCrossedCallDuringGiveBack: while giveBack's proxy_return is in
// flight, the entry already crosses to the server and its Sock still
// names the socket the library exported. The export handed that
// storage to the server, so once the server has imported the session
// the same pointer is the server's live socket, and a call another
// thread crosses then sends on the connection. Before the import it
// names the detached socket: CLOSED, with empty queues.
//
// The source returns a connection for a fork while it owes the peer an
// ACK, so the import spends CPU time sending one; a second thread
// crosses a send the moment the export is done, and its worker runs
// after the import and before the fork's thread wakes. (Had the import
// made a new socket, the send would find the detached one: ENOTCONN.)
func TestCrossedCallDuringGiveBack(t *testing.T) {
	s := sim.New(1)
	s.Deadline = sim.Time(time.Minute)
	seg := simnet.NewSegment(s)
	a := New(kern.NewHost(s, seg, "A", wire.MAC{1}, wire.IP(10, 0, 0, 1), costs.DECLibrarySHMIPF()), costs.DECServerUX())
	b := New(kern.NewHost(s, seg, "B", wire.MAC{2}, wire.IP(10, 0, 0, 2), costs.DECLibrarySHMIPF()), costs.DECServerUX())
	sink, lib := b.NewLibrary("sink"), a.NewLibrary("source")
	peer := socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 9}

	var got []byte
	s.SpawnDaemon("sink", func(p *sim.Proc) {
		ls, _ := sink.Socket(p, socketapi.SockStream)
		sink.Bind(p, ls, socketapi.SockAddr{Port: peer.Port})
		sink.Listen(p, ls, 1)
		fd, _, err := sink.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		sink.Send(p, fd, []byte("hi"), 0)
		buf := make([]byte, 64)
		for {
			n, err := sink.Recv(p, fd, buf, 0)
			if err != nil || n == 0 {
				return
			}
			got = append(got, buf[:n]...)
		}
	})

	fd := -1
	var exported bool
	var before, sent string // what the second thread saw before the import, and its send
	s.Spawn("source", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		fd, _ = lib.Socket(p, socketapi.SockStream)
		if err := lib.Connect(p, fd, peer); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 2)
		if n, err := lib.Recv(p, fd, buf, 0); n != 2 || err != nil {
			t.Errorf("recv = %d, %v", n, err)
			return
		}
		// The delayed ACK for "hi" is still owed: the import sends it.
		if _, err := lib.Fork(p, "child"); err != nil {
			t.Error(err)
		}
		if !exported {
			t.Error("the second thread never saw the export")
		}
		lib.Send(p, fd, []byte("!"), 0)
		p.Sleep(time.Second) // the sink reads both
		lib.Close(p, fd)
	})
	s.Spawn("second", func(p *sim.Proc) {
		for fd < 0 {
			p.Sleep(time.Microsecond)
		}
		e, _ := lib.Lookup(fd)
		for e.At != &lib.local { // connected and migrated in
			p.Sleep(time.Microsecond)
		}
		for e.At != &lib.remote { // exported for the fork
			p.Sleep(time.Microsecond)
		}
		exported = true
		before = stack.TCPStateOf(e.Sock)
		n, err := lib.Send(p, fd, []byte("x"), 0)
		if n != 1 || err != nil {
			sent = "failed"
			t.Errorf("a send crossed while the server imports the session: %d, %v; want the server's live socket to take it", n, err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if before != "CLOSED" {
		t.Errorf("before the import the entry names a %s socket, want the detached one (CLOSED)", before)
	}
	if sent == "" && string(got) != "x!" {
		t.Errorf("the sink read %q, want \"x!\"", got)
	}
}
