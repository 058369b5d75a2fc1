package apitest

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/socketapi"
)

// moreTests extends the conformance suite with edge-case behaviour every
// implementation must share.
var moreTests = []struct {
	name string
	fn   func(t *testing.T, e *Env)
}{
	{"MsgPeekLeavesData", testMsgPeek},
	{"ScatterGather", testScatterGather},
	{"ListenBacklogLimit", testListenBacklog},
	{"DoubleCloseIsError", testDoubleClose},
	{"UDPTruncation", testUDPTruncation},
	{"ConnectedUDPFiltersPeers", testConnectedUDP},
	{"EphemeralPortsDistinct", testEphemeralPorts},
	{"LargeUDPFragmented", testLargeUDP},
	{"ShutdownReadEOF", testShutdownRead},
	{"SelectWritable", testSelectWritable},
}

func testMsgPeek(t *testing.T, e *Env) {
	srv := e.NewB("peek")
	cli := e.NewA("peeker")
	e.Sim.Spawn("peek", func(p *sim.Proc) {
		fd, _ := srv.Socket(p, socketapi.SockDgram)
		srv.Bind(p, fd, socketapi.SockAddr{Port: 4000})
		buf := make([]byte, 64)
		n, _, err := srv.RecvFrom(p, fd, buf, socketapi.MsgPeek)
		if err != nil || string(buf[:n]) != "peekaboo" {
			t.Errorf("peek: %q %v", buf[:n], err)
		}
		// A second peek and then a real read must see the same datagram.
		n, _, _ = srv.RecvFrom(p, fd, buf, socketapi.MsgPeek)
		if string(buf[:n]) != "peekaboo" {
			t.Errorf("second peek: %q", buf[:n])
		}
		n, _, _ = srv.RecvFrom(p, fd, buf, 0)
		if string(buf[:n]) != "peekaboo" {
			t.Errorf("read after peek: %q", buf[:n])
		}
	})
	e.Sim.Spawn("peeker", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := cli.Socket(p, socketapi.SockDgram)
		cli.SendTo(p, fd, []byte("peekaboo"), 0, socketapi.SockAddr{Addr: e.IPB, Port: 4000})
	})
}

func testScatterGather(t *testing.T, e *Env) {
	srv := e.NewB("sg")
	cli := e.NewA("sgc")
	e.Sim.Spawn("sg", func(p *sim.Proc) {
		ls, fd, ok := acceptOne(t, p, srv, 5001, 1)
		if !ok {
			return
		}
		// Let the whole message arrive, then scatter one read across
		// three small buffers.
		p.Sleep(100 * time.Millisecond)
		iov := [][]byte{make([]byte, 3), make([]byte, 5), make([]byte, 16)}
		n, _, err := srv.RecvMsg(p, fd, iov, 0)
		if err != nil || n != 11 {
			t.Errorf("scattered read: n=%d err=%v", n, err)
			return
		}
		got := string(iov[0]) + string(iov[1][:5]) + string(iov[2][:3])
		if got != "hello world" {
			t.Errorf("scattered read = %q", got)
		}
		// Four queued bytes exactly fill the first buffer: the read
		// returns them rather than waiting for the next send to fill the
		// second.
		p.Sleep(200 * time.Millisecond)
		iov = [][]byte{make([]byte, 4), make([]byte, 4)}
		n, _, err = srv.RecvMsg(p, fd, iov, 0)
		if err != nil || n != 4 || string(iov[0]) != "abcd" {
			t.Errorf("read filling the first buffer: n=%d err=%v %q", n, err, iov[0])
		}
		srv.Close(p, fd)
		srv.Close(p, ls)
	})
	e.Sim.Spawn("sgc", func(p *sim.Proc) {
		fd, ok := dialOne(t, p, cli, socketapi.SockStream, socketapi.SockAddr{Addr: e.IPB, Port: 5001})
		if !ok {
			return
		}
		// The connection stays open past the first read, so Nagle must
		// not hold back the tail of the gathered write.
		cli.SetSockOpt(p, fd, socketapi.TCPNoDelay, 1)
		// Gather the write from three pieces.
		n, err := cli.SendMsg(p, fd, [][]byte{[]byte("hello"), []byte(" "), []byte("world")}, 0, nil)
		if err != nil || n != 11 {
			t.Errorf("gathered write: n=%d err=%v", n, err)
		}
		p.Sleep(200 * time.Millisecond)
		cli.Send(p, fd, []byte("abcd"), 0)
		p.Sleep(500 * time.Millisecond)
		cli.Send(p, fd, []byte("efgh"), 0)
		cli.Close(p, fd)
	})
}

func testListenBacklog(t *testing.T, e *Env) {
	srv := e.NewB("backlog")
	e.Sim.Spawn("backlog", func(p *sim.Proc) {
		ls := listener(p, srv, 5001, 2)
		// Accept all three eventually: the third client's SYN is dropped
		// while the backlog is full and retried, so everyone connects
		// once we start accepting.
		for i := 0; i < 3; i++ {
			fd, _, err := srv.Accept(p, ls)
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			buf := make([]byte, 4)
			srv.Recv(p, fd, buf, 0)
			srv.Close(p, fd)
		}
		srv.Close(p, ls)
	})
	for i := 0; i < 3; i++ {
		cli := e.NewA("c")
		e.Sim.Spawn("c", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			fd, _ := cli.Socket(p, socketapi.SockStream)
			if err := cli.Connect(p, fd, socketapi.SockAddr{Addr: e.IPB, Port: 5001}); err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			cli.Send(p, fd, []byte("hi"), 0)
			cli.Close(p, fd)
		})
	}
}

func testDoubleClose(t *testing.T, e *Env) {
	api := e.NewA("dc")
	e.Sim.Spawn("dc", func(p *sim.Proc) {
		fd, _ := api.Socket(p, socketapi.SockDgram)
		if err := api.Close(p, fd); err != nil {
			t.Errorf("first close: %v", err)
		}
		if err := api.Close(p, fd); !errors.Is(err, socketapi.ErrBadFD) {
			t.Errorf("second close = %v, want EBADF", err)
		}
	})
}

func testUDPTruncation(t *testing.T, e *Env) {
	srv := e.NewB("trunc")
	cli := e.NewA("truncc")
	e.Sim.Spawn("trunc", func(p *sim.Proc) {
		fd, _ := srv.Socket(p, socketapi.SockDgram)
		srv.Bind(p, fd, socketapi.SockAddr{Port: 4001})
		small := make([]byte, 4)
		n, _, err := srv.RecvFrom(p, fd, small, 0)
		if err != nil || n != 4 || string(small) != "0123" {
			t.Errorf("truncated read: %q %v", small[:n], err)
		}
		// The rest of the datagram is discarded; the next read sees the
		// next datagram, not the tail of the first.
		n, _, _ = srv.RecvFrom(p, fd, small, 0)
		if string(small[:n]) != "next" {
			t.Errorf("after truncation got %q, want next datagram", small[:n])
		}
		// A scatter list takes one datagram whole, peeked or read.
		for _, flags := range []int{socketapi.MsgPeek, 0} {
			iov := [][]byte{make([]byte, 4), make([]byte, 4)}
			n, _, err = srv.RecvMsg(p, fd, iov, flags)
			if err != nil || n != 8 || string(iov[0])+string(iov[1]) != "abcdefgh" {
				t.Errorf("scattered datagram (flags %d): n=%d err=%v %q %q", flags, n, err, iov[0], iov[1])
			}
		}
		n, _, _ = srv.RecvFrom(p, fd, small, 0)
		if string(small[:n]) != "1234" {
			t.Errorf("after the scattered datagram got %q, want 1234", small[:n])
		}
	})
	e.Sim.Spawn("truncc", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := cli.Socket(p, socketapi.SockDgram)
		dst := socketapi.SockAddr{Addr: e.IPB, Port: 4001}
		cli.SendTo(p, fd, []byte("0123456789"), 0, dst)
		p.Sleep(10 * time.Millisecond)
		cli.SendTo(p, fd, []byte("next"), 0, dst)
		cli.SendTo(p, fd, []byte("abcdefgh"), 0, dst)
		cli.SendTo(p, fd, []byte("1234"), 0, dst)
	})
}

func testConnectedUDP(t *testing.T, e *Env) {
	// A connected UDP socket must only receive from its peer.
	peer := e.NewB("goodpeer")
	noise := e.NewB("noise")
	cli := e.NewA("connudp")
	var got []string
	e.Sim.Spawn("goodpeer", func(p *sim.Proc) {
		fd, _ := peer.Socket(p, socketapi.SockDgram)
		peer.Bind(p, fd, socketapi.SockAddr{Port: 2000})
		buf := make([]byte, 64)
		_, from, err := peer.RecvFrom(p, fd, buf, 0)
		if err != nil {
			t.Error(err)
			return
		}
		peer.SendTo(p, fd, []byte("from-peer"), 0, from)
	})
	e.Sim.Spawn("connudp", func(p *sim.Proc) {
		fd, ok := dialOne(t, p, cli, socketapi.SockDgram, socketapi.SockAddr{Addr: e.IPB, Port: 2000})
		if !ok {
			return
		}
		la, _ := cli.GetSockName(p, fd)
		// Noise process on B fires at the client's port from port 2001.
		e.Sim.Spawn("noise", func(np *sim.Proc) {
			nfd, _ := noise.Socket(np, socketapi.SockDgram)
			noise.Bind(np, nfd, socketapi.SockAddr{Port: 2001})
			noise.SendTo(np, nfd, []byte("spoofed"), 0, socketapi.SockAddr{Addr: la.Addr, Port: la.Port})
		})
		if _, err := cli.Send(p, fd, []byte("hello"), 0); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64)
		n, _, err := cli.RecvFrom(p, fd, buf, 0)
		if err != nil {
			t.Error(err)
			return
		}
		got = append(got, string(buf[:n]))
	})
	e.Sim.Spawn("verify", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond)
		if len(got) != 1 || got[0] != "from-peer" {
			t.Errorf("connected socket received %v; noise must be filtered", got)
		}
	})
}

func testEphemeralPorts(t *testing.T, e *Env) {
	api := e.NewA("ephem")
	e.Sim.Spawn("ephem", func(p *sim.Proc) {
		seen := map[uint16]bool{}
		for i := 0; i < 5; i++ {
			fd, _ := api.Socket(p, socketapi.SockDgram)
			if err := api.Bind(p, fd, socketapi.SockAddr{}); err != nil {
				t.Error(err)
				return
			}
			la, err := api.GetSockName(p, fd)
			if err != nil || la.Port < 1024 {
				t.Errorf("ephemeral bind: %v %v", la, err)
			}
			if seen[la.Port] {
				t.Errorf("duplicate ephemeral port %d", la.Port)
			}
			seen[la.Port] = true
		}
	})
}

func testLargeUDP(t *testing.T, e *Env) {
	srv := e.NewB("big")
	cli := e.NewA("bigc")
	payload := bytes.Repeat([]byte("x0y1"), 1200) // 4800 B > MTU: fragments
	e.Sim.Spawn("big", func(p *sim.Proc) {
		fd, _ := srv.Socket(p, socketapi.SockDgram)
		srv.SetSockOpt(p, fd, socketapi.SoRcvBuf, 16384)
		srv.Bind(p, fd, socketapi.SockAddr{Port: 4002})
		buf := make([]byte, 9000)
		n, _, err := srv.RecvFrom(p, fd, buf, 0)
		if err != nil || !bytes.Equal(buf[:n], payload) {
			t.Errorf("large datagram: n=%d err=%v", n, err)
		}
	})
	e.Sim.Spawn("bigc", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := cli.Socket(p, socketapi.SockDgram)
		if _, err := cli.SendTo(p, fd, payload, 0, socketapi.SockAddr{Addr: e.IPB, Port: 4002}); err != nil {
			t.Error(err)
		}
	})
}

func testShutdownRead(t *testing.T, e *Env) {
	api := e.NewA("shutrd")
	e.Sim.Spawn("shutrd", func(p *sim.Proc) {
		fd, _ := api.Socket(p, socketapi.SockDgram)
		api.Bind(p, fd, socketapi.SockAddr{Port: 4500})
		if err := api.Shutdown(p, fd, socketapi.ShutRd); err != nil {
			t.Error(err)
			return
		}
		// A read after SHUT_RD returns immediately with no data.
		buf := make([]byte, 10)
		n, _, err := api.RecvFrom(p, fd, buf, 0)
		if err != nil || n != 0 {
			t.Errorf("read after SHUT_RD: n=%d err=%v", n, err)
		}
	})
}

func testSelectWritable(t *testing.T, e *Env) {
	srv := e.NewB("wsel")
	cli := e.NewA("wselc")
	e.Sim.Spawn("wsel", func(p *sim.Proc) {
		ls, fd, ok := acceptOne(t, p, srv, 5001, 1)
		if !ok {
			return
		}
		buf := make([]byte, 16)
		srv.Recv(p, fd, buf, 0)
		srv.Close(p, fd)
		srv.Close(p, ls)
	})
	e.Sim.Spawn("wselc", func(p *sim.Proc) {
		fd, ok := dialOne(t, p, cli, socketapi.SockStream, socketapi.SockAddr{Addr: e.IPB, Port: 5001})
		if !ok {
			return
		}
		_, w, err := cli.Select(p, nil, socketapi.NewFDSet(fd), time.Second)
		if err != nil || !w[fd] {
			t.Errorf("connected socket not writable: %v %v", w, err)
		}
		cli.Send(p, fd, []byte("done"), 0)
		cli.Close(p, fd)
	})
}
