package core_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costs"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/socketapi"
	"repro/internal/stack"
	"repro/internal/wire"
)

// world is a two-host decomposed-architecture test rig.
type world struct {
	s    *sim.Sim
	rng  *rand.Rand // test payloads, seeded like the sim
	seg  *simnet.Segment
	a, b *core.System
}

func newWorld(seed int64) *world {
	s := sim.New(seed)
	s.Deadline = sim.Time(30 * time.Minute)
	seg := simnet.NewSegment(s)
	return &world{
		s:   s,
		rng: rand.New(rand.NewSource(seed)),
		seg: seg,
		a:   core.New(kern.NewHost(s, seg, "A", wire.MAC{1}, wire.IP(10, 0, 0, 1), costs.DECLibrarySHMIPF()), costs.DECServerUX()),
		b:   core.New(kern.NewHost(s, seg, "B", wire.MAC{2}, wire.IP(10, 0, 0, 2), costs.DECLibrarySHMIPF()), costs.DECServerUX()),
	}
}

// TestTable1SessionMigration checks the paper's central claims about who
// manages a session when: UDP migrates at bind, TCP at connect/accept;
// close returns it to the server; data transfer never involves the
// server.
func TestTable1SessionMigration(t *testing.T) {
	w := newWorld(1)
	srvA, srvB := w.a.Server, w.b.Server

	done := false
	libB := w.b.NewLibrary("sink")
	libA := w.a.NewLibrary("source")
	w.s.Spawn("sink", func(p *sim.Proc) {
		ls, _ := libB.Socket(p, socketapi.SockStream)
		libB.Bind(p, ls, socketapi.SockAddr{Port: 5001})
		libB.Listen(p, ls, 1)
		// Listeners are server-managed: no migration yet.
		if srvB.Migrations.Value() != 0 {
			t.Errorf("B migrations before accept = %d", srvB.Migrations.Value())
		}
		fd, _, err := libB.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		// accept migrated the passively-opened session to the app.
		if srvB.Migrations.Value() != 1 {
			t.Errorf("B migrations after accept = %d", srvB.Migrations.Value())
		}
		buf := make([]byte, 4096)
		for {
			n, err := libB.Recv(p, fd, buf, 0)
			if err != nil || n == 0 {
				break
			}
		}
		libB.Close(p, fd)
		if srvB.Returns.Value() != 1 {
			t.Errorf("B returns after close = %d", srvB.Returns.Value())
		}
		libB.Close(p, ls)
		done = true
	})
	w.s.Spawn("source", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := libA.Socket(p, socketapi.SockStream)
		if err := libA.Connect(p, fd, socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		if srvA.Migrations.Value() != 1 {
			t.Errorf("A migrations after connect = %d", srvA.Migrations.Value())
		}
		data := make([]byte, 32*1024)
		off := 0
		for off < len(data) {
			n, err := libA.Send(p, fd, data[off:], 0)
			if err != nil {
				t.Error(err)
				return
			}
			off += n
		}
		libA.Close(p, fd)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("transfer incomplete")
	}
	// Close returned the sessions to the servers, which run the shutdown
	// handshake and TIME_WAIT there. Eventually every session record is
	// reaped (2MSL = 60 s).
	if err := w.s.RunFor(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := srvA.Sessions(); n != 0 {
		t.Errorf("A server still tracks %d sessions after 2MSL", n)
	}
	if n := srvB.Sessions(); n != 0 {
		t.Errorf("B server still tracks %d sessions after 2MSL", n)
	}
}

// TestUDPMigratesAtBind checks Table 1's bind row.
func TestUDPMigratesAtBind(t *testing.T) {
	w := newWorld(2)
	lib := w.b.NewLibrary("app")
	w.s.Spawn("app", func(p *sim.Proc) {
		fd, _ := lib.Socket(p, socketapi.SockDgram)
		if w.b.Server.Migrations.Value() != 0 {
			t.Error("migrated before bind")
		}
		lib.Bind(p, fd, socketapi.SockAddr{Port: 9999})
		if w.b.Server.Migrations.Value() != 1 {
			t.Error("UDP session did not migrate at bind")
		}
		lib.Close(p, fd)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if w.b.Server.Sessions() != 0 {
		t.Error("session not reaped after close")
	}
}

// TestPacketFilterIsolation is the paper's §3.4 security property: an
// application can only receive packets destined for its own sessions.
// Two applications on one host each bind a UDP port; traffic for one must
// never reach the other's protocol library.
func TestPacketFilterIsolation(t *testing.T) {
	w := newWorld(3)
	victim := w.b.NewLibrary("victim")
	snoop := w.b.NewLibrary("snoop")
	cli := w.a.NewLibrary("cli")
	gotVictim := 0

	w.s.Spawn("victim", func(p *sim.Proc) {
		fd, _ := victim.Socket(p, socketapi.SockDgram)
		victim.Bind(p, fd, socketapi.SockAddr{Port: 1000})
		buf := make([]byte, 100)
		for i := 0; i < 3; i++ {
			n, _, err := victim.RecvFrom(p, fd, buf, 0)
			if err != nil || n == 0 {
				t.Error("victim recv failed")
				return
			}
			gotVictim++
		}
	})
	w.s.Spawn("snoop", func(p *sim.Proc) {
		fd, _ := snoop.Socket(p, socketapi.SockDgram)
		snoop.Bind(p, fd, socketapi.SockAddr{Port: 1001})
		buf := make([]byte, 100)
		// Must time out: nothing is sent to port 1001.
		r, _, _ := snoop.Select(p, socketapi.NewFDSet(fd), nil, 5*time.Second)
		if len(r) != 0 {
			n, _, _ := snoop.RecvFrom(p, fd, buf, 0)
			t.Errorf("snoop received %d bytes of someone else's traffic", n)
		}
	})
	w.s.Spawn("cli", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := cli.Socket(p, socketapi.SockDgram)
		for i := 0; i < 3; i++ {
			cli.SendTo(p, fd, []byte("secret"), 0, socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 1000})
			p.Sleep(time.Millisecond)
		}
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if gotVictim != 3 {
		t.Errorf("victim got %d datagrams, want 3", gotVictim)
	}
	// The snoop's library stack must have processed zero packets.
	if n := snoop.St.Stats.IPIn.Value(); n != 0 {
		t.Errorf("snoop's library stack saw %d packets", n)
	}
}

// TestProcessDeathAbortsSessions is the paper's unexpected-shutdown case:
// the server detects the death, aborts the connection with a RST, and
// quarantines the port against immediate rebinding.
func TestProcessDeathAbortsSessions(t *testing.T) {
	w := newWorld(4)
	libA := w.a.NewLibrary("dying")
	libB := w.b.NewLibrary("peer")
	var peerErr error
	var localPort uint16

	w.s.Spawn("peer", func(p *sim.Proc) {
		ls, _ := libB.Socket(p, socketapi.SockStream)
		libB.Bind(p, ls, socketapi.SockAddr{Port: 5001})
		libB.Listen(p, ls, 1)
		fd, _, err := libB.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 100)
		for {
			n, err := libB.Recv(p, fd, buf, 0)
			if err != nil {
				peerErr = err
				return
			}
			if n == 0 {
				return
			}
		}
	})
	w.s.Spawn("dying", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := libA.Socket(p, socketapi.SockStream)
		if err := libA.Connect(p, fd, socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		la, _ := libA.GetSockName(p, fd)
		localPort = la.Port
		libA.Send(p, fd, []byte("last words"), 0)
		p.Sleep(100 * time.Millisecond)
		// Die without closing anything.
		libA.ExitProcess(p)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(peerErr, socketapi.ErrConnReset) {
		t.Errorf("peer error = %v, want ECONNRESET from the server's abort", peerErr)
	}
	if w.a.Server.OrphansAborted.Value() != 1 {
		t.Errorf("orphans aborted = %d", w.a.Server.OrphansAborted.Value())
	}
	// The port is quarantined: rebinding must fail until 2MSL passes.
	lib2 := w.a.NewLibrary("rebinder")
	var early, late error
	w.s.Spawn("rebinder", func(p *sim.Proc) {
		fd, _ := lib2.Socket(p, socketapi.SockStream)
		early = lib2.Bind(p, fd, socketapi.SockAddr{Port: localPort})
		p.Sleep(70 * time.Second)
		fd2, _ := lib2.Socket(p, socketapi.SockStream)
		late = lib2.Bind(p, fd2, socketapi.SockAddr{Port: localPort})
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(early, socketapi.ErrAddrInUse) {
		t.Errorf("bind during quarantine = %v, want EADDRINUSE", early)
	}
	if late != nil {
		t.Errorf("bind after quarantine = %v, want success", late)
	}
}

// TestMetastateCaching checks §3.3: the library caches ARP entries from
// the server and the server invalidates them when they change or expire.
func TestMetastateCaching(t *testing.T) {
	w := newWorld(5)
	lib := w.a.NewLibrary("app")
	srvLib := w.b.NewLibrary("srvapp")
	w.s.Spawn("sink", func(p *sim.Proc) {
		fd, _ := srvLib.Socket(p, socketapi.SockDgram)
		srvLib.Bind(p, fd, socketapi.SockAddr{Port: 7})
		buf := make([]byte, 100)
		for i := 0; i < 4; i++ {
			srvLib.RecvFrom(p, fd, buf, 0)
		}
	})
	w.s.Spawn("app", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := lib.Socket(p, socketapi.SockDgram)
		dst := socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 7}
		for i := 0; i < 4; i++ {
			if _, err := lib.SendTo(p, fd, []byte("x"), 0, dst); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(time.Millisecond)
		}
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	c := lib.Cache()
	if c.Misses != 1 {
		t.Errorf("cache misses = %d, want exactly 1 (first send)", c.Misses)
	}
	if c.Hits < 3 {
		t.Errorf("cache hits = %d, want >= 3", c.Hits)
	}
	// Let the server's ARP entry expire; the invalidation callback must
	// clear the library's cached copy.
	if err := w.s.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Invalidated == 0 {
		t.Error("no cache invalidation after server ARP expiry")
	}
}

// TestFragmentForwarding: fragments of a large datagram for a migrated
// UDP session land at the server (ports are only in the first fragment);
// the server reassembles and re-injects so the session filter claims the
// whole datagram.
func TestFragmentForwarding(t *testing.T) {
	w := newWorld(6)
	libB := w.b.NewLibrary("bigsink")
	libA := w.a.NewLibrary("bigsource")
	const size = 5000
	payload := make([]byte, size)
	w.rng.Read(payload)
	var got []byte
	w.s.Spawn("bigsink", func(p *sim.Proc) {
		fd, _ := libB.Socket(p, socketapi.SockDgram)
		libB.SetSockOpt(p, fd, socketapi.SoRcvBuf, 16384)
		libB.Bind(p, fd, socketapi.SockAddr{Port: 2000})
		buf := make([]byte, 9000)
		n, _, err := libB.RecvFrom(p, fd, buf, 0)
		if err != nil {
			t.Error(err)
			return
		}
		got = buf[:n]
	})
	w.s.Spawn("bigsource", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := libA.Socket(p, socketapi.SockDgram)
		if _, err := libA.SendTo(p, fd, payload, 0, socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 2000}); err != nil {
			t.Error(err)
		}
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("fragmented datagram corrupted: %d bytes", len(got))
	}
	if w.b.Server.FragForwards.Value() != 1 {
		t.Errorf("server forwarded %d reassembled datagrams, want 1", w.b.Server.FragForwards.Value())
	}
}

// TestFragmentTimeout: the server's table of fragments for migrated
// sessions ages on the server stack's slow timer, so a datagram whose
// second fragment is lost is dropped after the reassembly timeout (15 s)
// and counted there; a straggler arriving later completes nothing.
func TestFragmentTimeout(t *testing.T) {
	w := newWorld(6)
	srv := w.b.Server
	libB := w.b.NewLibrary("sink")
	var got [][]byte
	w.s.SpawnDaemon("sink", func(p *sim.Proc) {
		fd, _ := libB.Socket(p, socketapi.SockDgram)
		libB.Bind(p, fd, socketapi.SockAddr{Port: 2000})
		for {
			buf := make([]byte, 64)
			n, _, err := libB.RecvFrom(p, fd, buf, 0)
			if err != nil {
				return
			}
			got = append(got, buf[:n])
		}
	})

	// One 16-byte datagram 10.0.0.1:3000 → 10.0.0.2:2000 in two fragments.
	dgram := make([]byte, wire.UDPHeaderLen+16)
	(&wire.UDPHeader{SrcPort: 3000, DstPort: 2000, Length: uint16(len(dgram))}).Marshal(dgram)
	copy(dgram[wire.UDPHeaderLen:], "sixteen bytes...")
	frag := func(id uint16, second bool) []byte {
		body := dgram[:16]
		h := wire.IPv4Header{ID: id, TTL: wire.DefaultTTL, Proto: wire.ProtoUDP,
			Src: wire.IP(10, 0, 0, 1), Dst: wire.IP(10, 0, 0, 2), Flags: wire.IPFlagMF}
		if second {
			body, h.Flags, h.FragOff = dgram[16:], 0, 2
		}
		h.TotalLen = uint16(wire.IPv4HeaderLen + len(body))
		f := make([]byte, wire.EthHeaderLen+wire.IPv4HeaderLen+len(body))
		(&wire.EthHeader{Dst: wire.MAC{2}, Src: wire.MAC{1}, Type: wire.EtherTypeIPv4}).Marshal(f)
		h.Marshal(f[wire.EthHeaderLen:])
		copy(f[wire.EthHeaderLen+wire.IPv4HeaderLen:], body)
		return f
	}

	w.s.After(100*time.Millisecond, func() { w.b.Host.Inject(frag(1, false)) }) // its second fragment is lost
	w.s.After(16*time.Second, func() {
		if n := srv.St.Stats.IPReasmTimeout.Value(); n != 1 {
			t.Errorf("reassembly timeouts after 16 s = %d, want 1", n)
		}
		w.b.Host.Inject(frag(1, true)) // straggler: nothing left to complete
	})
	w.s.After(17*time.Second, func() {
		if srv.FragForwards.Value() != 0 || len(got) != 0 {
			t.Errorf("expired datagram completed: %d forwards, %d deliveries", srv.FragForwards.Value(), len(got))
		}
		w.b.Host.Inject(frag(2, false)) // the fragments themselves are sound:
		w.b.Host.Inject(frag(2, true))  // a whole pair is forwarded
	})
	if err := w.s.RunFor(18 * time.Second); err != nil {
		t.Fatal(err)
	}
	if srv.FragForwards.Value() != 1 || len(got) != 1 || !bytes.Equal(got[0], dgram[wire.UDPHeaderLen:]) {
		t.Fatalf("complete pair: %d forwards, deliveries %q", srv.FragForwards.Value(), got)
	}
}

// TestServerFragmentsOutliveReuse: the server's table of fragments for
// migrated sessions keeps each fragment by alias, so a fragment it holds
// must never go back to mbuf's pools. A first fragment arrives as an
// owned delivery in pooled storage; a second burst then draws full-size
// frames from the pools and overwrites them; the last fragment completes
// the datagram, which must arrive as sent.
func TestServerFragmentsOutliveReuse(t *testing.T) {
	w := newWorld(6)
	libB := w.b.NewLibrary("sink")
	x := w.seg.AttachOn(w.s, "X", wire.MAC{9})
	var got []byte
	w.s.Spawn("sink", func(p *sim.Proc) {
		fd, _ := libB.Socket(p, socketapi.SockDgram)
		libB.SetSockOpt(p, fd, socketapi.SoRcvBuf, 16384)
		libB.Bind(p, fd, socketapi.SockAddr{Port: 2000})
		buf := make([]byte, 4096)
		n, _, err := libB.RecvFrom(p, fd, buf, 0)
		if err != nil {
			t.Error(err)
			return
		}
		got = buf[:n]
	})

	// One datagram 10.0.0.9:3000 → 10.0.0.2:2000 in two fragments, the
	// first a full-size frame.
	dgram := make([]byte, 2000)
	w.rng.Read(dgram)
	(&wire.UDPHeader{SrcPort: 3000, DstPort: 2000, Length: uint16(len(dgram))}).Marshal(dgram)
	const split = 1480
	frag := func(second bool) []byte {
		body := dgram[:split]
		h := wire.IPv4Header{ID: 7, TTL: wire.DefaultTTL, Proto: wire.ProtoUDP,
			Src: wire.IP(10, 0, 0, 9), Dst: wire.IP(10, 0, 0, 2), Flags: wire.IPFlagMF}
		if second {
			body, h.Flags, h.FragOff = dgram[split:], 0, split/8
		}
		h.TotalLen = uint16(wire.IPv4HeaderLen + len(body))
		f := mbuf.Frame(wire.EthHeaderLen + wire.IPv4HeaderLen + len(body))
		(&wire.EthHeader{Dst: wire.MAC{2}, Src: wire.MAC{9}, Type: wire.EtherTypeIPv4}).Marshal(f)
		h.Marshal(f[wire.EthHeaderLen:])
		copy(f[wire.EthHeaderLen+wire.IPv4HeaderLen:], body)
		return f
	}
	w.s.After(100*time.Millisecond, func() { x.Transmit(frag(false)) })
	var burst [][]byte
	w.s.After(time.Second, func() {
		for range 32 {
			f := mbuf.Frame(wire.EthHeaderLen + wire.IPv4HeaderLen + split)
			for i := range f {
				f[i] = 0xee
			}
			burst = append(burst, f)
		}
	})
	w.s.After(2*time.Second, func() { x.Transmit(frag(true)) })
	if err := w.s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if w.b.Server.FragForwards.Value() != 1 || !bytes.Equal(got, dgram[wire.UDPHeaderLen:]) {
		t.Fatalf("%d forwards; datagram arrived as %d bytes, equal to the sent %d: %v",
			w.b.Server.FragForwards.Value(), len(got), len(dgram)-wire.UDPHeaderLen, bytes.Equal(got, dgram[wire.UDPHeaderLen:]))
	}
}

// TestZeroCopyAPI exercises the paper's §4.2 NEWAPI on the library
// implementation.
func TestZeroCopyAPI(t *testing.T) {
	w := newWorld(7)
	libB := w.b.NewLibrary("zsink")
	libA := w.a.NewLibrary("zsource")
	const total = 64 * 1024
	payload := make([]byte, total)
	w.rng.Read(payload)
	var got bytes.Buffer
	w.s.Spawn("zsink", func(p *sim.Proc) {
		ls, _ := libB.Socket(p, socketapi.SockStream)
		libB.Bind(p, ls, socketapi.SockAddr{Port: 5001})
		libB.Listen(p, ls, 1)
		fd, _, err := libB.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			view, _, err := libB.RecvZC(p, fd, 16384, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if len(view) == 0 {
				break
			}
			got.Write(view)
		}
		libB.Close(p, fd)
	})
	w.s.Spawn("zsource", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := libA.Socket(p, socketapi.SockStream)
		if err := libA.Connect(p, fd, socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		off := 0
		for off < total {
			end := off + 8192
			if end > total {
				end = total
			}
			n, err := libA.SendZC(p, fd, payload[off:end], 0)
			if err != nil {
				t.Error(err)
				return
			}
			off += n
		}
		libA.Close(p, fd)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("zero-copy stream corrupted: %d bytes", got.Len())
	}
}

// TestDataPathBypassesServer verifies the headline property: once a
// session has migrated, send/receive generate no proxy calls.
func TestDataPathBypassesServer(t *testing.T) {
	w := newWorld(8)
	libB := w.b.NewLibrary("sink")
	libA := w.a.NewLibrary("source")
	var rpcsAtTransferStart, rpcsAtTransferEnd int
	w.s.Spawn("sink", func(p *sim.Proc) {
		fd, _ := libB.Socket(p, socketapi.SockDgram)
		libB.Bind(p, fd, socketapi.SockAddr{Port: 7})
		buf := make([]byte, 1500)
		for i := 0; i < 50; i++ {
			libB.RecvFrom(p, fd, buf, 0)
		}
	})
	w.s.Spawn("source", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := libA.Socket(p, socketapi.SockDgram)
		dst := socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 7}
		// First send triggers implicit bind + ARP; let those settle.
		libA.SendTo(p, fd, []byte("warmup"), 0, dst)
		p.Sleep(10 * time.Millisecond)
		rpcsAtTransferStart = libA.ProxyCalls()
		for i := 0; i < 49; i++ {
			if _, err := libA.SendTo(p, fd, make([]byte, 1024), 0, dst); err != nil {
				t.Error(err)
				return
			}
			// Pace below the receiver's drain rate; UDP has no flow
			// control and an overrun would (correctly) drop datagrams.
			p.Sleep(2 * time.Millisecond)
		}
		rpcsAtTransferEnd = libA.ProxyCalls()
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if rpcsAtTransferEnd != rpcsAtTransferStart {
		t.Errorf("data transfer made %d proxy calls; the server must not be on the data path",
			rpcsAtTransferEnd-rpcsAtTransferStart)
	}
}

// TestProxyCallsByOperation pins Table 1 as counted: one TCP connection
// opened, accepted and closed crosses to the server once per control
// operation, and the data between makes no crossing at all. A process
// that dies with a socket open crosses once more, with its death notice.
func TestProxyCallsByOperation(t *testing.T) {
	w := newWorld(1)
	libB := w.b.NewLibrary("sink")
	libA := w.a.NewLibrary("source")
	libC := w.a.NewLibrary("dying")
	w.s.Spawn("dying", func(p *sim.Proc) {
		libC.Socket(p, socketapi.SockStream)
		libC.ExitProcess(p)
	})
	w.s.Spawn("sink", func(p *sim.Proc) {
		ls, _ := libB.Socket(p, socketapi.SockStream)
		libB.Bind(p, ls, socketapi.SockAddr{Port: 5001})
		libB.Listen(p, ls, 1)
		fd, _, err := libB.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 512)
		for {
			if n, err := libB.Recv(p, fd, buf, 0); err != nil || n == 0 {
				break
			}
		}
		libB.Close(p, fd)
		libB.Close(p, ls)
	})
	w.s.Spawn("source", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := libA.Socket(p, socketapi.SockStream)
		if err := libA.Connect(p, fd, socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		libA.Send(p, fd, make([]byte, 4096), 0)
		libA.Close(p, fd)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		lib  *core.Library
		want map[string]int
	}{
		{libA, map[string]int{"socket": 1, "connect": 1, "return": 1}},
		{libB, map[string]int{"socket": 1, "bind": 1, "listen": 1, "accept": 1, "return": 1, "release": 1}},
		{libC, map[string]int{"socket": 1, "death": 1}},
	} {
		if got := c.lib.ProxyCallsByOp(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s crossed %v, want %v", c.lib.Proc.Name, got, c.want)
		}
		if sum := c.lib.ProxyCalls(); sum != sumOf(c.want) {
			t.Errorf("ProxyCalls = %d, want the %d counted by operation", sum, sumOf(c.want))
		}
	}
}

// TestFailedSpliceMovesNeither: a splice that fails because one socket
// was never connected — bare, bound or listening, either way round —
// gives neither session back to the server: it answers ENOTCONN without
// a crossing, and the connected socket is still the library's.
func TestFailedSpliceMovesNeither(t *testing.T) {
	w := newWorld(1)
	libB := w.b.NewLibrary("sink")
	libA := w.a.NewLibrary("source")
	w.s.Spawn("sink", func(p *sim.Proc) {
		ls, _ := libB.Socket(p, socketapi.SockStream)
		libB.Bind(p, ls, socketapi.SockAddr{Port: 5001})
		libB.Listen(p, ls, 1)
		fd, _, err := libB.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		libB.Recv(p, fd, make([]byte, 16), 0)
		libB.Close(p, fd)
		libB.Close(p, ls)
	})
	w.s.Spawn("source", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		c, _ := libA.Socket(p, socketapi.SockStream)
		if err := libA.Connect(p, c, socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		u, _ := libA.Socket(p, socketapi.SockStream)
		for _, step := range []struct {
			u     string
			setup func() error
		}{
			{"bare", func() error { return nil }},
			{"bound", func() error { return libA.Bind(p, u, socketapi.SockAddr{Port: 4104}) }},
			{"listening", func() error { return libA.Listen(p, u, 1) }},
		} {
			if err := step.setup(); err != nil {
				t.Errorf("%s: %v", step.u, err)
				return
			}
			before := libA.ProxyCalls()
			for _, fds := range [][2]int{{u, c}, {c, u}} {
				if _, err := libA.Splice(p, fds[0], fds[1], 1); err != socketapi.ErrNotConn {
					t.Errorf("%s: splice %d %d: %v, want ENOTCONN", step.u, fds[0], fds[1], err)
				}
			}
			if n := libA.ProxyCalls() - before; n != 0 {
				t.Errorf("%s: the failed splices crossed %d times (%v), want none", step.u, n, libA.ProxyCallsByOp())
			}
		}
		libA.Send(p, c, []byte("x"), 0)
		libA.Close(p, c)
		libA.Close(p, u)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"socket": 2, "connect": 1, "bind": 1, "listen": 1, "return": 1, "release": 1}
	if got := libA.ProxyCallsByOp(); !reflect.DeepEqual(got, want) {
		t.Errorf("source crossed %v, want %v: c goes back only as it closes", got, want)
	}
}

func sumOf(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// TestLibraryCannotNameControl pins the decomposition's line (Table 1)
// where the compiler keeps it: the stack a library links has no method
// that names, opens or closes a session and nowhere to keep a port
// namespace or an ARP engine; the stack the OS server holds has them all.
func TestLibraryCannotNameControl(t *testing.T) {
	field := func(of any) reflect.Type {
		f, _ := reflect.TypeOf(of).Elem().FieldByName("St")
		return f.Type
	}
	lib, srv := field((*core.Library)(nil)), field((*core.Server)(nil))
	for _, m := range []string{"NewSocket", "Bind", "Connect", "Listen", "Accept", "Close", "Abort", "ARP"} {
		if _, ok := lib.MethodByName(m); ok {
			t.Errorf("Library.St (%v) has %s: a library asks the server for that", lib, m)
		}
		if _, ok := srv.MethodByName(m); !ok {
			t.Errorf("Server.St (%v) lacks %s", srv, m)
		}
	}
	for i := 0; i < lib.Elem().NumField(); i++ {
		f := lib.Elem().Field(i)
		if f.Type == reflect.TypeOf((*stack.LocalPorts)(nil)) || strings.Contains(f.Type.String(), "arpEngine") {
			t.Errorf("Library.St has a field %s %v: naming and ARP are the server's", f.Name, f.Type)
		}
	}
}
