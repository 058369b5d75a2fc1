// Package apitest is a conformance suite for socketapi.API
// implementations. The paper's compatibility goal — existing socket
// clients work unchanged whether protocols run in the kernel, in a
// server, or in application libraries — translates here to one test
// suite that every implementation must pass.
package apitest

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/wire"
)

// Env is a two-host world with an API factory per host.
type Env struct {
	Sim      *sim.Sim
	NewA     func(name string) socketapi.API // host A (10.0.0.1)
	NewB     func(name string) socketapi.API // host B (10.0.0.2)
	IPA, IPB wire.IPAddr
}

// Builder constructs a fresh Env for one subtest.
type Builder func(t *testing.T, seed int64) *Env

// RunAll runs the whole conformance suite against the implementation.
func RunAll(t *testing.T, build Builder) {
	tests := []struct {
		name string
		fn   func(t *testing.T, e *Env)
	}{
		{"UDPEcho", testUDPEcho},
		{"UDPUnconnectedMultiPeer", testUDPUnconnectedMultiPeer},
		{"TCPTransfer", testTCPTransfer},
		{"TCPEcho", testTCPEcho},
		{"TCPConnectRefused", testTCPConnectRefused},
		{"TCPShutdownWrite", testTCPShutdownWrite},
		{"SockNames", testSockNames},
		{"SockOptions", testSockOptions},
		{"SelectReadable", testSelectReadable},
		{"SelectTimeout", testSelectTimeout},
		{"ForkSharesSessions", testForkSharesSessions},
		{"BadFD", testBadFD},
		{"AcceptMultiple", testAcceptMultiple},
		{"BindConflict", testBindConflict},
	}
	tests = append(tests, moreTests...)
	tests = append(tests, chainTests...)
	tests = append(tests, []struct {
		name string
		fn   func(t *testing.T, e *Env)
	}{
		{"MisuseAgreement", testMisuseAgreement},
		{"AcceptMultipleHostIP", testAcceptMultipleHostIP},
		{"AcceptedCloseKeepsListenerPort", testAcceptedCloseKeepsListenerPort},
		{"ExitClosesEveryDescriptor", testExitClosesEveryDescriptor},
		{"UDPConnectAfterFork", testUDPConnectAfterFork},
	}...)
	for i, tc := range tests {
		tc := tc
		seed := int64(i + 1)
		t.Run(tc.name, func(t *testing.T) {
			e := build(t, seed)
			e.Sim.Deadline = sim.Time(30 * time.Minute)
			tc.fn(t, e)
			if err := e.Sim.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func testUDPEcho(t *testing.T, e *Env) {
	srv := e.NewB("udpserver")
	cli := e.NewA("udpclient")
	e.Sim.Spawn("server", func(p *sim.Proc) {
		fd, err := srv.Socket(p, socketapi.SockDgram)
		if err != nil {
			t.Error(err)
			return
		}
		if err := srv.Bind(p, fd, socketapi.SockAddr{Port: 7}); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 1500)
		n, from, err := srv.RecvFrom(p, fd, buf, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := srv.SendTo(p, fd, buf[:n], 0, from); err != nil {
			t.Error(err)
		}
	})
	e.Sim.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := cli.Socket(p, socketapi.SockDgram)
		msg := []byte("echo me")
		if _, err := cli.SendTo(p, fd, msg, 0, socketapi.SockAddr{Addr: e.IPB, Port: 7}); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 1500)
		n, from, err := cli.RecvFrom(p, fd, buf, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(buf[:n], msg) {
			t.Errorf("echo = %q", buf[:n])
		}
		if from.Addr != e.IPB || from.Port != 7 {
			t.Errorf("echo source = %v", from)
		}
		cli.Close(p, fd)
	})
}

func testUDPUnconnectedMultiPeer(t *testing.T, e *Env) {
	srv := e.NewB("collector")
	e.Sim.Spawn("collector", func(p *sim.Proc) {
		fd, _ := srv.Socket(p, socketapi.SockDgram)
		if err := srv.Bind(p, fd, socketapi.SockAddr{Port: 514}); err != nil {
			t.Error(err)
			return
		}
		seen := map[string]bool{}
		buf := make([]byte, 100)
		for i := 0; i < 2; i++ {
			n, _, err := srv.RecvFrom(p, fd, buf, 0)
			if err != nil {
				t.Error(err)
				return
			}
			seen[string(buf[:n])] = true
		}
		if !seen["from-1"] || !seen["from-2"] {
			t.Errorf("seen = %v", seen)
		}
	})
	for i := 1; i <= 2; i++ {
		i := i
		cli := e.NewA("sender")
		e.Sim.Spawn("sender", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			fd, _ := cli.Socket(p, socketapi.SockDgram)
			msg := []byte{'f', 'r', 'o', 'm', '-', byte('0' + i)}
			if _, err := cli.SendTo(p, fd, msg, 0, socketapi.SockAddr{Addr: e.IPB, Port: 514}); err != nil {
				t.Error(err)
			}
		})
	}
}

func testTCPTransfer(t *testing.T, e *Env) {
	const total = 128 * 1024
	payload := make([]byte, total)
	rand.New(rand.NewSource(e.Sim.Seed())).Read(payload)
	var got bytes.Buffer
	srv := e.NewB("sink")
	cli := e.NewA("source")
	e.Sim.Spawn("sink", func(p *sim.Proc) {
		ls, _ := srv.Socket(p, socketapi.SockStream)
		if err := srv.Bind(p, ls, socketapi.SockAddr{Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		if err := srv.Listen(p, ls, 5); err != nil {
			t.Error(err)
			return
		}
		fd, peer, err := srv.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		if peer.Addr != e.IPA {
			t.Errorf("peer = %v", peer)
		}
		buf := make([]byte, 8192)
		for {
			n, err := srv.Recv(p, fd, buf, 0)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if n == 0 {
				break
			}
			got.Write(buf[:n])
		}
		srv.Close(p, fd)
		srv.Close(p, ls)
	})
	e.Sim.Spawn("source", func(p *sim.Proc) {
		fd, ok := dialOne(t, p, cli, socketapi.SockStream, socketapi.SockAddr{Addr: e.IPB, Port: 5001})
		if !ok {
			return
		}
		for off := 0; off < total; {
			n := 8192
			if off+n > total {
				n = total - off
			}
			w, err := cli.Send(p, fd, payload[off:off+n], 0)
			if err != nil {
				t.Errorf("send: %v", err)
				return
			}
			off += w
		}
		cli.Close(p, fd)
	})
	e.Sim.Spawn("check", func(p *sim.Proc) {
		// Runs last (after both exit) because spawn order is FIFO at each
		// instant and the others block; simplest is to poll.
		for got.Len() < total {
			p.Sleep(10 * time.Millisecond)
			if p.Now() > sim.Time(20*time.Minute) {
				t.Errorf("transfer stalled at %d/%d", got.Len(), total)
				return
			}
		}
		if !bytes.Equal(got.Bytes(), payload) {
			t.Error("stream corrupted")
		}
	})
}

func testTCPEcho(t *testing.T, e *Env) {
	srv := e.NewB("echod")
	cli := e.NewA("client")
	e.Sim.Spawn("echod", func(p *sim.Proc) {
		ls, fd, ok := acceptOne(t, p, srv, 7, 1)
		if !ok {
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := srv.Recv(p, fd, buf, 0)
			if err != nil || n == 0 {
				break
			}
			srv.Send(p, fd, buf[:n], 0)
		}
		srv.Close(p, fd)
		srv.Close(p, ls)
	})
	e.Sim.Spawn("client", func(p *sim.Proc) {
		fd, ok := dialOne(t, p, cli, socketapi.SockStream, socketapi.SockAddr{Addr: e.IPB, Port: 7})
		if !ok {
			return
		}
		for i := 0; i < 5; i++ {
			msg := bytes.Repeat([]byte{byte('a' + i)}, 100*(i+1))
			if _, err := cli.Send(p, fd, msg, 0); err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, len(msg))
			off := 0
			for off < len(msg) {
				n, err := cli.Recv(p, fd, buf[off:], 0)
				if err != nil || n == 0 {
					t.Errorf("echo read: n=%d err=%v", n, err)
					return
				}
				off += n
			}
			if !bytes.Equal(buf, msg) {
				t.Errorf("round %d corrupted", i)
				return
			}
		}
		cli.Close(p, fd)
	})
}

func testTCPConnectRefused(t *testing.T, e *Env) {
	cli := e.NewA("client")
	e.Sim.Spawn("client", func(p *sim.Proc) {
		fd, _ := cli.Socket(p, socketapi.SockStream)
		err := cli.Connect(p, fd, socketapi.SockAddr{Addr: e.IPB, Port: 9999})
		if !errors.Is(err, socketapi.ErrConnRefused) {
			t.Errorf("connect = %v, want ECONNREFUSED", err)
		}
	})
}

func testTCPShutdownWrite(t *testing.T, e *Env) {
	srv := e.NewB("server")
	cli := e.NewA("client")
	e.Sim.Spawn("server", func(p *sim.Proc) {
		ls, fd, ok := acceptOne(t, p, srv, 5001, 1)
		if !ok {
			return
		}
		buf := make([]byte, 100)
		n, _ := srv.Recv(p, fd, buf, 0)
		if string(buf[:n]) != "half" {
			t.Errorf("got %q", buf[:n])
		}
		// EOF after the client's write shutdown.
		if n, _ := srv.Recv(p, fd, buf, 0); n != 0 {
			t.Errorf("expected EOF, got %d bytes", n)
		}
		// Server can still send the other way.
		srv.Send(p, fd, []byte("reply"), 0)
		srv.Close(p, fd)
		srv.Close(p, ls)
	})
	e.Sim.Spawn("client", func(p *sim.Proc) {
		fd, ok := dialOne(t, p, cli, socketapi.SockStream, socketapi.SockAddr{Addr: e.IPB, Port: 5001})
		if !ok {
			return
		}
		cli.Send(p, fd, []byte("half"), 0)
		if err := cli.Shutdown(p, fd, socketapi.ShutWr); err != nil {
			t.Error(err)
			return
		}
		if _, err := cli.Send(p, fd, []byte("more"), 0); err == nil {
			t.Error("send after shutdown succeeded")
		}
		buf := make([]byte, 100)
		n, err := cli.Recv(p, fd, buf, 0)
		if err != nil || string(buf[:n]) != "reply" {
			t.Errorf("reply: %q err=%v", buf[:n], err)
		}
		cli.Close(p, fd)
	})
}

func testSockNames(t *testing.T, e *Env) {
	srv := e.NewB("server")
	cli := e.NewA("client")
	e.Sim.Spawn("server", func(p *sim.Proc) {
		ls, fd, ok := acceptOne(t, p, srv, 5001, 1)
		if !ok {
			return
		}
		buf := make([]byte, 10)
		srv.Recv(p, fd, buf, 0)
		srv.Close(p, fd)
		srv.Close(p, ls)
	})
	e.Sim.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := cli.Socket(p, socketapi.SockStream)
		if _, err := cli.GetPeerName(p, fd); !errors.Is(err, socketapi.ErrNotConn) {
			t.Errorf("GetPeerName unconnected = %v", err)
		}
		if err := cli.Connect(p, fd, socketapi.SockAddr{Addr: e.IPB, Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		local, err := cli.GetSockName(p, fd)
		if err != nil || local.Addr != e.IPA || local.Port == 0 {
			t.Errorf("GetSockName = %v, %v", local, err)
		}
		peer, err := cli.GetPeerName(p, fd)
		if err != nil || peer.Addr != e.IPB || peer.Port != 5001 {
			t.Errorf("GetPeerName = %v, %v", peer, err)
		}
		cli.Send(p, fd, []byte("x"), 0)
		cli.Close(p, fd)
	})
}

func testSockOptions(t *testing.T, e *Env) {
	api := e.NewA("opt")
	e.Sim.Spawn("opt", func(p *sim.Proc) {
		fd, _ := api.Socket(p, socketapi.SockStream)
		if err := api.SetSockOpt(p, fd, socketapi.SoRcvBuf, 65536); err != nil {
			t.Error(err)
		}
		if v, err := api.GetSockOpt(p, fd, socketapi.SoRcvBuf); err != nil || v != 65536 {
			t.Errorf("rcvbuf = %d, %v", v, err)
		}
		if err := api.SetSockOpt(p, fd, socketapi.TCPNoDelay, 1); err != nil {
			t.Error(err)
		}
		if v, _ := api.GetSockOpt(p, fd, socketapi.TCPNoDelay); v != 1 {
			t.Errorf("nodelay = %d", v)
		}
		if err := api.SetSockOpt(p, fd, socketapi.SoRcvBuf, -1); err == nil {
			t.Error("negative buffer accepted")
		}
		api.Close(p, fd)
	})
}

func testSelectReadable(t *testing.T, e *Env) {
	srv := e.NewB("selserver")
	cli := e.NewA("selclient")
	e.Sim.Spawn("selserver", func(p *sim.Proc) {
		fd, _ := srv.Socket(p, socketapi.SockDgram)
		srv.Bind(p, fd, socketapi.SockAddr{Port: 1234})
		r, _, err := srv.Select(p, socketapi.NewFDSet(fd), nil, -1)
		if err != nil {
			t.Error(err)
			return
		}
		if !r[fd] {
			t.Error("select returned without fd readable")
		}
		buf := make([]byte, 100)
		n, _, _ := srv.RecvFrom(p, fd, buf, 0)
		if string(buf[:n]) != "sel" {
			t.Errorf("got %q", buf[:n])
		}
	})
	e.Sim.Spawn("selclient", func(p *sim.Proc) {
		p.Sleep(50 * time.Millisecond)
		fd, _ := cli.Socket(p, socketapi.SockDgram)
		cli.SendTo(p, fd, []byte("sel"), 0, socketapi.SockAddr{Addr: e.IPB, Port: 1234})
	})
}

func testSelectTimeout(t *testing.T, e *Env) {
	api := e.NewA("seltimeout")
	e.Sim.Spawn("seltimeout", func(p *sim.Proc) {
		fd, _ := api.Socket(p, socketapi.SockDgram)
		api.Bind(p, fd, socketapi.SockAddr{Port: 999})
		start := p.Now()
		r, w, err := api.Select(p, socketapi.NewFDSet(fd), nil, 20*time.Millisecond)
		if err != nil {
			t.Error(err)
			return
		}
		if len(r) != 0 || len(w) != 0 {
			t.Error("nothing should be ready")
		}
		if got := p.Now().Sub(start); got < 20*time.Millisecond {
			t.Errorf("returned after %v, want >= 20ms", got)
		}
	})
}

func testForkSharesSessions(t *testing.T, e *Env) {
	srv := e.NewB("forkserver")
	parent := e.NewA("parent")
	e.Sim.Spawn("forkserver", func(p *sim.Proc) {
		ls, fd, ok := acceptOne(t, p, srv, 5001, 1)
		if !ok {
			return
		}
		// Expect data written by parent and child over the same session.
		var got bytes.Buffer
		buf := make([]byte, 100)
		for {
			n, err := srv.Recv(p, fd, buf, 0)
			if err != nil || n == 0 {
				break
			}
			got.Write(buf[:n])
		}
		s := got.String()
		if !bytes.Contains([]byte(s), []byte("parent")) || !bytes.Contains([]byte(s), []byte("child")) {
			t.Errorf("stream = %q, want writes from both processes", s)
		}
		srv.Close(p, fd)
		srv.Close(p, ls)
	})
	e.Sim.Spawn("parent", func(p *sim.Proc) {
		fd, ok := dialOne(t, p, parent, socketapi.SockStream, socketapi.SockAddr{Addr: e.IPB, Port: 5001})
		if !ok {
			return
		}
		child, err := parent.Fork(p, "child")
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		if _, err := parent.Send(p, fd, []byte("parent"), 0); err != nil {
			t.Errorf("parent send: %v", err)
		}
		e.Sim.Spawn("child", func(cp *sim.Proc) {
			if _, err := child.Send(cp, fd, []byte("child"), 0); err != nil {
				t.Errorf("child send: %v", err)
			}
			// Child closes its copy; session must stay open for parent.
			child.Close(cp, fd)
			child.ExitProcess(cp)
		})
		p.Sleep(100 * time.Millisecond)
		parent.Close(p, fd)
	})
}

func testBadFD(t *testing.T, e *Env) {
	api := e.NewA("badfd")
	e.Sim.Spawn("badfd", func(p *sim.Proc) {
		if _, err := api.Send(p, 77, []byte("x"), 0); !errors.Is(err, socketapi.ErrBadFD) {
			t.Errorf("send on bad fd = %v", err)
		}
		if err := api.Close(p, 77); !errors.Is(err, socketapi.ErrBadFD) {
			t.Errorf("close on bad fd = %v", err)
		}
		fd, _ := api.Socket(p, socketapi.SockDgram)
		api.Close(p, fd)
		if _, err := api.Send(p, fd, []byte("x"), 0); !errors.Is(err, socketapi.ErrBadFD) {
			t.Errorf("send on closed fd = %v", err)
		}
	})
}

func testAcceptMultiple(t *testing.T, e *Env) { acceptMultiple(t, e, wire.IPAddr{}, false) }

// testAcceptMultipleHostIP binds the listener to the host's own address
// instead of INADDR_ANY: closing an accepted connection, whose local
// address is then the listener's, must leave the listener reachable.
func testAcceptMultipleHostIP(t *testing.T, e *Env) { acceptMultiple(t, e, e.IPB, false) }

// testAcceptedCloseKeepsListenerPort: accepted connections share their
// listener's port, so once they are closed and gone the port is still
// the listener's until it closes.
func testAcceptedCloseKeepsListenerPort(t *testing.T, e *Env) {
	acceptMultiple(t, e, wire.IPAddr{}, true)
}

// testExitClosesEveryDescriptor: exit closes every descriptor, as BSD
// exit() does, unconnected ones included: a listener's port and a bound
// socket's are free at once.
func testExitClosesEveryDescriptor(t *testing.T, e *Env) {
	dying, heir := e.NewB("dying"), e.NewB("heir")
	e.Sim.Spawn("dying", func(p *sim.Proc) {
		listener(p, dying, 5001, 1)
		bindNew(t, p, dying, socketapi.SockStream, 5002, nil)
		dying.ExitProcess(p)
		bindNew(t, p, heir, socketapi.SockStream, 5001, nil)
		bindNew(t, p, heir, socketapi.SockStream, 5002, nil)
	})
}

// testUDPConnectAfterFork: connect on a UDP socket that fork shares with
// a child narrows it to one peer as on any other socket: a send without
// an address goes there and the peer's reply comes back.
func testUDPConnectAfterFork(t *testing.T, e *Env) {
	echo, parent := e.NewB("udpecho"), e.NewA("parent")
	e.Sim.Spawn("udpecho", func(p *sim.Proc) {
		fd, _ := echo.Socket(p, socketapi.SockDgram)
		echo.Bind(p, fd, socketapi.SockAddr{Port: 7})
		buf := make([]byte, 64)
		if n, from, err := echo.RecvFrom(p, fd, buf, 0); err == nil {
			echo.SendTo(p, fd, buf[:n], 0, from)
		}
	})
	e.Sim.Spawn("parent", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := parent.Socket(p, socketapi.SockDgram)
		parent.Bind(p, fd, socketapi.SockAddr{Port: 4000})
		if _, err := parent.Fork(p, "child"); err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		peer := socketapi.SockAddr{Addr: e.IPB, Port: 7}
		if err := parent.Connect(p, fd, peer); err != nil {
			t.Errorf("connect after fork: %v", err)
			return
		}
		if got, err := parent.GetPeerName(p, fd); err != nil || got != peer {
			t.Errorf("GetPeerName = %v, %v", got, err)
		}
		parent.Send(p, fd, []byte("ping"), 0)
		buf := make([]byte, 64)
		if n, err := parent.Recv(p, fd, buf, 0); err != nil || string(buf[:n]) != "ping" {
			t.Errorf("echo = %q, %v", buf[:n], err)
		}
	})
}

// listener is the socket, bind and listen a TCP server starts with.
func listener(p *sim.Proc, api socketapi.API, port uint16, backlog int) int {
	ls, _ := api.Socket(p, socketapi.SockStream)
	api.Bind(p, ls, socketapi.SockAddr{Port: port})
	api.Listen(p, ls, backlog)
	return ls
}

// acceptOne starts a listener on port and accepts one connection on it,
// reporting a failed accept; ok is false when there is none to serve.
func acceptOne(t *testing.T, p *sim.Proc, api socketapi.API, port uint16, backlog int) (ls, fd int, ok bool) {
	t.Helper()
	ls = listener(p, api, port, backlog)
	fd, _, err := api.Accept(p, ls)
	if err != nil {
		t.Error(err)
		return ls, fd, false
	}
	return ls, fd, true
}

// dialOne gives the peer a millisecond to start listening, then opens a
// socket of type typ and connects it to, reporting a failed connect.
func dialOne(t *testing.T, p *sim.Proc, api socketapi.API, typ int, to socketapi.SockAddr) (fd int, ok bool) {
	t.Helper()
	p.Sleep(time.Millisecond)
	fd, _ = api.Socket(p, typ)
	if err := api.Connect(p, fd, to); err != nil {
		t.Error(err)
		return fd, false
	}
	return fd, true
}

// bindNew binds a new socket of api to port and checks the answer.
func bindNew(t *testing.T, p *sim.Proc, api socketapi.API, typ int, port uint16, want error) {
	fd, _ := api.Socket(p, typ)
	if err := api.Bind(p, fd, socketapi.SockAddr{Port: port}); !errors.Is(err, want) {
		t.Errorf("bind(%d) at %v = %v, want %v", port, p.Now(), err, want)
	}
}

// acceptMultiple serves three connections on listenIP:5001. With squat,
// another application binds the port after every connection's 2MSL and
// again once the listener is closed.
func acceptMultiple(t *testing.T, e *Env, listenIP wire.IPAddr, squat bool) {
	srv := e.NewB("multiserver")
	const clients = 3
	e.Sim.Spawn("multiserver", func(p *sim.Proc) {
		ls, _ := srv.Socket(p, socketapi.SockStream)
		if err := srv.Bind(p, ls, socketapi.SockAddr{Addr: listenIP, Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		srv.Listen(p, ls, clients)
		for i := 0; i < clients; i++ {
			fd, _, err := srv.Accept(p, ls)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 10)
			n, err := srv.Recv(p, fd, buf, 0)
			if err != nil || n == 0 {
				t.Errorf("conn %d: n=%d err=%v", i, n, err)
			}
			srv.Close(p, fd)
		}
		if !squat {
			srv.Close(p, ls)
			return
		}
		p.Sleep(90 * time.Second)
		bindNew(t, p, e.NewB("squatter"), socketapi.SockStream, 5001, socketapi.ErrAddrInUse)
		srv.Close(p, ls)
		bindNew(t, p, e.NewB("squatter"), socketapi.SockStream, 5001, nil)
	})
	for i := 0; i < clients; i++ {
		i := i
		cli := e.NewA("multiclient")
		e.Sim.Spawn("multiclient", func(p *sim.Proc) {
			p.Sleep(time.Duration(i+1) * 10 * time.Millisecond)
			fd, _ := cli.Socket(p, socketapi.SockStream)
			if err := cli.Connect(p, fd, socketapi.SockAddr{Addr: e.IPB, Port: 5001}); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			cli.Send(p, fd, []byte("hi"), 0)
			cli.Close(p, fd)
		})
	}
}

func testBindConflict(t *testing.T, e *Env) {
	a1 := e.NewA("bind1")
	a2 := e.NewA("bind2")
	e.Sim.Spawn("binds", func(p *sim.Proc) {
		fd1, _ := a1.Socket(p, socketapi.SockDgram)
		if err := a1.Bind(p, fd1, socketapi.SockAddr{Port: 4444}); err != nil {
			t.Error(err)
			return
		}
		bindNew(t, p, a2, socketapi.SockDgram, 4444, socketapi.ErrAddrInUse)
		a1.Close(p, fd1)
		bindNew(t, p, a2, socketapi.SockDgram, 4444, nil) // reusable after close
	})
}
