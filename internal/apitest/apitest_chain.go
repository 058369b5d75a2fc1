package apitest

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/socketapi"
)

// chainTests extends the conformance suite to the chain interface:
// scatter-gather send, selective-copy receive, and cross-socket splice
// must behave identically on every architecture, whatever each one's
// copy cost.
var chainTests = []struct {
	name string
	fn   func(t *testing.T, e *Env)
}{
	{"ChainEchoTCP", testChainEchoTCP},
	{"ChainSendUDP", testChainSendUDP},
	{"RecvPeekSelectiveRanges", testRecvPeekRanges},
	{"RecvPeekViewWriteIsolated", testRecvPeekViewWrite},
	{"SpliceEcho", testSpliceEcho},
	{"SpliceForward", testSpliceForward},
}

// chains returns the chain interface of an API, failing the test if the
// implementation lacks it (all three architectures must provide it).
func chains(t *testing.T, api socketapi.API) socketapi.ChainAPI {
	t.Helper()
	c, ok := api.(socketapi.ChainAPI)
	if !ok {
		t.Fatalf("%T does not implement socketapi.ChainAPI", api)
	}
	return c
}

// drainPeek reads exactly want bytes through RecvPeek/RecvRelease.
func drainPeek(t *testing.T, p *sim.Proc, api socketapi.API, fd, want int) []byte {
	t.Helper()
	ch := chains(t, api)
	var got []byte
	for len(got) < want {
		view, err := ch.RecvPeek(p, fd, want-len(got), nil)
		if err != nil {
			t.Errorf("RecvPeek: %v", err)
			return got
		}
		n := view.Chain.Len()
		if n == 0 {
			view.Chain.Release()
			return got // EOF
		}
		b := make([]byte, n)
		view.Chain.ReadAt(b, 0)
		got = append(got, b...)
		view.Chain.Release()
		if err := ch.RecvRelease(p, fd, n); err != nil {
			t.Errorf("RecvRelease: %v", err)
			return got
		}
	}
	return got
}

func testChainEchoTCP(t *testing.T, e *Env) {
	srv := e.NewB("chainecho")
	cli := e.NewA("chaincli")
	msg := bytes.Repeat([]byte("chain-echo-"), 300) // > one segment
	e.Sim.Spawn("server", func(p *sim.Proc) {
		fd, cfd, ok := acceptOne(t, p, srv, 700, 4)
		if !ok {
			return
		}
		sc := chains(t, srv)
		// Echo by reference: the peeked view is surrendered straight
		// back to SendChain without flattening.
		got := 0
		for got < len(msg) {
			view, err := sc.RecvPeek(p, cfd, len(msg)-got, nil)
			if err != nil {
				t.Error(err)
				return
			}
			n := view.Chain.Len()
			if n == 0 {
				break
			}
			if err := sc.RecvRelease(p, cfd, n); err != nil {
				t.Error(err)
				return
			}
			if _, err := sc.SendChain(p, cfd, view.Chain, 0); err != nil {
				t.Error(err)
				return
			}
			got += n
		}
		srv.Close(p, cfd)
		srv.Close(p, fd)
	})
	e.Sim.Spawn("client", func(p *sim.Proc) {
		fd, ok := dialOne(t, p, cli, socketapi.SockStream, socketapi.SockAddr{Addr: e.IPB, Port: 700})
		if !ok {
			return
		}
		cc := chains(t, cli)
		// Gather from three aliased pieces: no flat staging buffer.
		c := mbuf.New()
		c.AppendAlias(msg[:1000])
		c.AppendAlias(msg[1000:2000])
		c.AppendAlias(msg[2000:])
		if n, err := cc.SendChain(p, fd, c, 0); err != nil || n != len(msg) {
			t.Errorf("SendChain = %d, %v", n, err)
			return
		}
		got := drainPeek(t, p, cli, fd, len(msg))
		if !bytes.Equal(got, msg) {
			t.Errorf("echo mismatch: %d bytes", len(got))
		}
		cli.Close(p, fd)
	})
}

func testChainSendUDP(t *testing.T, e *Env) {
	srv := e.NewB("chainudp")
	cli := e.NewA("chainudpcli")
	e.Sim.Spawn("server", func(p *sim.Proc) {
		fd, _ := srv.Socket(p, socketapi.SockDgram)
		srv.Bind(p, fd, socketapi.SockAddr{Port: 701})
		sc := chains(t, srv)
		view, err := sc.RecvPeek(p, fd, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		b := make([]byte, view.Chain.Len())
		view.Chain.ReadAt(b, 0)
		if string(b) != "datagram-as-chain" {
			t.Errorf("got %q", b)
		}
		if view.From.Addr != e.IPA {
			t.Errorf("from = %v", view.From)
		}
		view.Chain.Release()
		// RecvRelease consumes the whole datagram regardless of n.
		if err := sc.RecvRelease(p, fd, 1); err != nil {
			t.Error(err)
		}
	})
	e.Sim.Spawn("client", func(p *sim.Proc) {
		fd, ok := dialOne(t, p, cli, socketapi.SockDgram, socketapi.SockAddr{Addr: e.IPB, Port: 701})
		if !ok {
			return
		}
		cc := chains(t, cli)
		c := mbuf.FromBytesCopy([]byte("datagram-as-chain"))
		if n, err := cc.SendChain(p, fd, c, 0); err != nil || n != 17 {
			t.Errorf("SendChain = %d, %v", n, err)
		}
	})
}

func testRecvPeekRanges(t *testing.T, e *Env) {
	srv := e.NewB("ranges")
	cli := e.NewA("rangescli")
	// A framed message: 4-byte type, 4-byte length, payload.
	msg := append([]byte("TYPElen!"), bytes.Repeat([]byte("p"), 512)...)
	e.Sim.Spawn("server", func(p *sim.Proc) {
		fd, cfd, ok := acceptOne(t, p, srv, 702, 4)
		if !ok {
			return
		}
		sc := chains(t, srv)
		// Materialize only the two header fields; the payload stays a
		// chain view. Ranges beyond the view must clamp, not fail.
		ranges := []socketapi.Range{{Off: 0, Len: 4}, {Off: 4, Len: 4}, {Off: 100000, Len: 4}}
		var view socketapi.RecvView
		for {
			var err error
			view, err = sc.RecvPeek(p, cfd, len(msg), ranges)
			if err != nil {
				t.Error(err)
				return
			}
			if view.Chain.Len() >= len(msg) {
				break
			}
			// Wait for the rest without consuming: release the view and
			// ask again after more data arrives.
			view.Chain.Release()
			p.Sleep(5 * time.Millisecond)
		}
		if string(view.Copied[0]) != "TYPE" || string(view.Copied[1]) != "len!" {
			t.Errorf("header ranges = %q %q", view.Copied[0], view.Copied[1])
		}
		if len(view.Copied[2]) != 0 {
			t.Errorf("out-of-view range not clamped: %d bytes", len(view.Copied[2]))
		}
		b := make([]byte, view.Chain.Len())
		view.Chain.ReadAt(b, 0)
		if !bytes.Equal(b, msg) {
			t.Error("view does not match message")
		}
		view.Chain.Release()
		sc.RecvRelease(p, cfd, len(msg))
		srv.Close(p, cfd)
		srv.Close(p, fd)
	})
	e.Sim.Spawn("client", func(p *sim.Proc) {
		fd, ok := dialOne(t, p, cli, socketapi.SockStream, socketapi.SockAddr{Addr: e.IPB, Port: 702})
		if !ok {
			return
		}
		cli.Send(p, fd, msg, 0)
		cli.Close(p, fd)
	})
}

func testRecvPeekViewWrite(t *testing.T, e *Env) {
	srv := e.NewB("cow")
	cli := e.NewA("cowcli")
	e.Sim.Spawn("server", func(p *sim.Proc) {
		fd, cfd, ok := acceptOne(t, p, srv, 703, 4)
		if !ok {
			return
		}
		sc := chains(t, srv)
		v1, err := sc.RecvPeek(p, cfd, 32, nil)
		if err != nil {
			t.Error(err)
			return
		}
		// Scribble over the aliased view. Copy-on-write must keep the
		// receive queue (and any in-flight segment) intact.
		v1.Chain.WriteAt(bytes.Repeat([]byte("X"), v1.Chain.Len()), 0)
		v2, err := sc.RecvPeek(p, cfd, 32, nil)
		if err != nil {
			t.Error(err)
			return
		}
		b := make([]byte, v2.Chain.Len())
		v2.Chain.ReadAt(b, 0)
		if string(b) != "copy-on-write-me" {
			t.Errorf("queue corrupted by view write: %q", b)
		}
		v1.Chain.Release()
		v2.Chain.Release()
		sc.RecvRelease(p, cfd, len(b))
		srv.Close(p, cfd)
		srv.Close(p, fd)
	})
	e.Sim.Spawn("client", func(p *sim.Proc) {
		fd, ok := dialOne(t, p, cli, socketapi.SockStream, socketapi.SockAddr{Addr: e.IPB, Port: 703})
		if !ok {
			return
		}
		cli.Send(p, fd, []byte("copy-on-write-me"), 0)
		cli.Close(p, fd)
	})
}

func testSpliceEcho(t *testing.T, e *Env) {
	srv := e.NewB("spliceecho")
	cli := e.NewA("splicecli")
	msg := bytes.Repeat([]byte("splice-echo!"), 512) // 6 KB
	e.Sim.Spawn("server", func(p *sim.Proc) {
		fd, cfd, ok := acceptOne(t, p, srv, 704, 4)
		if !ok {
			return
		}
		// Echo without ever seeing a byte: splice the socket into itself.
		if n, err := chains(t, srv).Splice(p, cfd, cfd, len(msg)); err != nil || n != len(msg) {
			t.Errorf("Splice = %d, %v", n, err)
		}
		srv.Close(p, cfd)
		srv.Close(p, fd)
	})
	e.Sim.Spawn("client", func(p *sim.Proc) {
		fd, ok := dialOne(t, p, cli, socketapi.SockStream, socketapi.SockAddr{Addr: e.IPB, Port: 704})
		if !ok {
			return
		}
		if _, err := cli.Send(p, fd, msg, 0); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 0, len(msg))
		buf := make([]byte, 2048)
		for len(got) < len(msg) {
			n, err := cli.Recv(p, fd, buf, 0)
			if err != nil || n == 0 {
				t.Errorf("recv after %d: n=%d %v", len(got), n, err)
				return
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, msg) {
			t.Error("splice-echo mismatch")
		}
		cli.Close(p, fd)
	})
}

func testSpliceForward(t *testing.T, e *Env) {
	proxy := e.NewB("fwdproxy")
	cli := e.NewA("fwdsrc")
	sink := e.NewA("fwdsink")
	msg := bytes.Repeat([]byte("forward-me"), 800) // 8 KB
	e.Sim.Spawn("sink", func(p *sim.Proc) {
		fd, cfd, ok := acceptOne(t, p, sink, 706, 4)
		if !ok {
			return
		}
		got := make([]byte, 0, len(msg))
		buf := make([]byte, 4096)
		for len(got) < len(msg) {
			n, err := sink.Recv(p, cfd, buf, 0)
			if err != nil || n == 0 {
				t.Errorf("sink recv after %d: n=%d %v", len(got), n, err)
				return
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, msg) {
			t.Error("forwarded bytes mismatch")
		}
		sink.Close(p, cfd)
		sink.Close(p, fd)
	})
	e.Sim.Spawn("proxy", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		lfd, sfd, ok := acceptOne(t, p, proxy, 705, 4)
		if !ok {
			return
		}
		dfd, _ := proxy.Socket(p, socketapi.SockStream)
		if err := proxy.Connect(p, dfd, socketapi.SockAddr{Addr: e.IPA, Port: 706}); err != nil {
			t.Error(err)
			return
		}
		if n, err := chains(t, proxy).Splice(p, dfd, sfd, len(msg)); err != nil || n != len(msg) {
			t.Errorf("Splice = %d, %v", n, err)
		}
		proxy.Close(p, dfd)
		proxy.Close(p, sfd)
		proxy.Close(p, lfd)
	})
	e.Sim.Spawn("source", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		fd, _ := cli.Socket(p, socketapi.SockStream)
		if err := cli.Connect(p, fd, socketapi.SockAddr{Addr: e.IPB, Port: 705}); err != nil {
			t.Error(err)
			return
		}
		if _, err := cli.Send(p, fd, msg, 0); err != nil {
			t.Error(err)
		}
		cli.Close(p, fd)
	})
}
