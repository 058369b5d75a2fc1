package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/kern"
	"repro/internal/mbuf"
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

// TestBlockedCallsFinishAfterFork: threads blocked in a library-local
// send, its send buffer full, and in a receive when another thread
// forks: the fork gives the session back to the server, and the blocked
// calls wake and finish there. All 64 KiB reach the peer, and the
// receive returns the peer's reply. Each pair of calls is a path of its
// own: the copying calls, NEWAPI's, and the chain calls.
func TestBlockedCallsFinishAfterFork(t *testing.T) {
	type calls struct {
		name string
		send func(lib *Library, p *sim.Proc, fd int, b []byte) (int, error)
		recv func(lib *Library, p *sim.Proc, fd int) ([]byte, error)
	}
	for _, tc := range []calls{
		{"copy",
			func(lib *Library, p *sim.Proc, fd int, b []byte) (int, error) { return lib.Send(p, fd, b, 0) },
			func(lib *Library, p *sim.Proc, fd int) ([]byte, error) {
				buf := make([]byte, 8)
				n, err := lib.Recv(p, fd, buf, 0)
				return buf[:n], err
			}},
		{"zerocopy",
			func(lib *Library, p *sim.Proc, fd int, b []byte) (int, error) { return lib.SendZC(p, fd, b, 0) },
			func(lib *Library, p *sim.Proc, fd int) ([]byte, error) {
				view, _, err := lib.RecvZC(p, fd, 8, 0)
				return view, err
			}},
		{"chain",
			func(lib *Library, p *sim.Proc, fd int, b []byte) (int, error) {
				return lib.SendChain(p, fd, mbuf.FromBytes(b), 0)
			},
			func(lib *Library, p *sim.Proc, fd int) ([]byte, error) {
				v, err := lib.RecvPeek(p, fd, 8, nil)
				if v.Chain == nil {
					return nil, err
				}
				return v.Chain.Bytes(), err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) { blockedCallsFinishAfterFork(t, tc.send, tc.recv) })
	}
}

func blockedCallsFinishAfterFork(t *testing.T,
	send func(lib *Library, p *sim.Proc, fd int, b []byte) (int, error),
	recv func(lib *Library, p *sim.Proc, fd int) ([]byte, error)) {
	s := sim.New(1)
	s.Deadline = sim.Time(time.Minute)
	seg := simnet.NewSegment(s)
	a := New(kern.NewHost(s, seg, "A", wire.MAC{1}, wire.IP(10, 0, 0, 1), costs.DECLibrarySHMIPF()), costs.DECServerUX())
	b := New(kern.NewHost(s, seg, "B", wire.MAC{2}, wire.IP(10, 0, 0, 2), costs.DECLibrarySHMIPF()), costs.DECServerUX())
	sink, lib := b.NewLibrary("sink"), a.NewLibrary("source")
	peer := socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 9}
	const size = 64 << 10
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}

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
		buf := make([]byte, 4096)
		for len(got) < size {
			n, err := sink.Recv(p, fd, buf, 0)
			if err != nil || n == 0 {
				return
			}
			got = append(got, buf[:n]...)
		}
		sink.Send(p, fd, []byte("ok"), 0)
	})

	fd := -1
	sent, err := -1, error(nil)
	var reply string
	s.Spawn("t1", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		fd, _ = lib.Socket(p, socketapi.SockStream)
		if err := lib.Connect(p, fd, peer); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(10 * time.Millisecond) // t3 is blocked on a full send buffer by now
		if e, _ := lib.Lookup(fd); e.At != &lib.local || sent >= 0 || reply != "" {
			t.Errorf("before the fork: session local %v, send returned %d, recv %q; want local, both blocked", e.At == &lib.local, sent, reply)
		}
		if _, err := lib.Fork(p, "child"); err != nil {
			t.Error(err)
		}
	})
	s.Spawn("t3", func(p *sim.Proc) {
		for fd < 0 {
			p.Sleep(time.Microsecond)
		}
		for e, _ := lib.Lookup(fd); e.At != &lib.local; { // connected and migrated in
			p.Sleep(time.Microsecond)
		}
		sent, err = send(lib, p, fd, data)
		p.Sleep(time.Second) // the sink reads the rest
	})
	s.Spawn("t4", func(p *sim.Proc) {
		for fd < 0 {
			p.Sleep(time.Microsecond)
		}
		for e, _ := lib.Lookup(fd); e.At != &lib.local; {
			p.Sleep(time.Microsecond)
		}
		b, err := recv(lib, p, fd)
		reply = fmt.Sprintf("%q %v", b, err)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sent != size || err != nil {
		t.Errorf("send = %d, %v; want %d, nil", sent, err, size)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("the peer read %d bytes (equal: %v), want the %d sent", len(got), bytes.Equal(got, data), size)
	}
	if reply != `"ok" <nil>` {
		t.Errorf("recv = %s, want \"ok\" <nil>", reply)
	}
}
