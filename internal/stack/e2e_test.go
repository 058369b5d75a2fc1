package stack_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/socketapi"
	"repro/internal/stack"
	"repro/internal/wire"
)

// node is a minimal "kernel-style" deployment of the stack for end-to-end
// tests: one host, one stack owning the whole interface.
type node struct {
	host *kern.Host
	st   *stack.Control
	pr   *kern.Process
	prof costs.Profile

	// txFilter, when set, sees every frame the stack transmits; returning
	// false drops the frame before it reaches the NIC.
	txFilter func(frame []byte) bool
}

func newNode(s *sim.Sim, seg *simnet.Segment, name string, macLast byte, ip wire.IPAddr) *node {
	return newNodeProf(s, seg, name, macLast, ip, costs.DECKernelMach25())
}

func newNodeProf(s *sim.Sim, seg *simnet.Segment, name string, macLast byte, ip wire.IPAddr, prof costs.Profile) *node {
	n := &node{prof: prof}
	n.host = kern.NewHost(s, seg, name, wire.MAC{0xde, 0xad, 0, 0, 0, macLast}, ip, n.prof)
	n.pr = n.host.NewProcess("stack")
	ep := n.host.NewEndpoint(0)
	if _, err := ep.InstallProgram(kern.CatchAllProgram(), 0); err != nil {
		panic(err)
	}
	n.st = stack.NewControl(stack.Config{
		Sim:      s,
		Name:     name,
		LocalIP:  ip,
		LocalMAC: n.host.NIC.MAC(),
		Costs:    &n.prof.Costs,
		Charge:   n.host.ProtoCharge(&n.prof.Costs, nil),
		Transmit: func(frame []byte) error {
			if n.txFilter != nil && !n.txFilter(frame) {
				return nil
			}
			return n.host.NIC.Transmit(frame)
		},
	}, stack.NewLocalPorts())
	ep.Drain(n.pr, n.pr.Name+".rx", n.st.Input)
	n.st.StartTimers(n.pr.GoDaemon)
	return n
}

type world struct {
	s    *sim.Sim
	rng  *rand.Rand // test payloads, seeded like the sim
	seg  *simnet.Segment
	a, b *node
}

func newWorld(seed int64) *world {
	s := sim.New(seed)
	s.Deadline = sim.Time(30 * time.Minute)
	seg := simnet.NewSegment(s)
	return &world{
		s:   s,
		rng: rand.New(rand.NewSource(seed)),
		seg: seg,
		a:   newNode(s, seg, "A", 1, wire.IP(10, 0, 0, 1)),
		b:   newNode(s, seg, "B", 2, wire.IP(10, 0, 0, 2)),
	}
}

func TestUDPRoundTrip(t *testing.T) {
	w := newWorld(1)
	var got []byte
	var from stack.Addr

	w.s.Spawn("server", func(p *sim.Proc) {
		s := w.b.st.NewSocket(wire.ProtoUDP)
		if err := w.b.st.Bind(s, stack.Addr{Port: 53}); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 2000)
		n, f, _, err := w.b.st.Recv(p, s, buf, stack.RecvOpts{})
		_ = err
		got = buf[:n]
		from = f
		// Echo back.
		w.b.st.Send(p, s, [][]byte{got}, sendOptsTo(&f))
	})
	var reply []byte
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // let the server bind
		s := w.a.st.NewSocket(wire.ProtoUDP)
		dst := stack.Addr{IP: w.b.st.LocalIP(), Port: 53}
		if _, err := w.a.st.Send(p, s, [][]byte{[]byte("ping!")}, sendOptsTo(&dst)); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 2000)
		n, _, _, err := w.a.st.Recv(p, s, buf, recvOptsNone())
		if err != nil {
			t.Error(err)
			return
		}
		reply = buf[:n]
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping!" || string(reply) != "ping!" {
		t.Fatalf("got %q reply %q", got, reply)
	}
	if from.IP != w.a.st.LocalIP() {
		t.Fatalf("source address %v", from)
	}
}

// The stack package's option structs are unexported; these helpers build
// them via the exported wrappers below.
func sendOptsTo(a *stack.Addr) stack.SendOpts { return stack.SendOpts{To: a} }
func recvOptsNone() stack.RecvOpts            { return stack.RecvOpts{} }

func TestTCPConnectTransferClose(t *testing.T) {
	w := newWorld(2)
	const total = 256 * 1024
	payload := make([]byte, total)
	w.rng.Read(payload)
	var received bytes.Buffer
	var acceptedFrom stack.Addr

	w.s.Spawn("server", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		if err := w.b.st.Bind(ls, stack.Addr{Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		if err := w.b.st.Listen(ls, 5); err != nil {
			t.Error(err)
			return
		}
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		acceptedFrom = cs.RemoteAddr()
		buf := make([]byte, 8192)
		for {
			n, _, _, err := w.b.st.Recv(p, cs, buf, recvOptsNone())
			if err != nil {
				t.Errorf("server recv: %v", err)
				return
			}
			if n == 0 {
				break // EOF
			}
			received.Write(buf[:n])
		}
		w.b.st.Close(p, cs)
		w.b.st.Close(p, ls)
	})

	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		off := 0
		for off < total {
			n := 8192
			if off+n > total {
				n = total - off
			}
			wrote, err := w.a.st.Send(p, s, [][]byte{payload[off : off+n]}, stack.SendOpts{})
			if err != nil {
				t.Errorf("send: %v", err)
				return
			}
			off += wrote
		}
		w.a.st.Close(p, s)
	})

	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(received.Bytes(), payload) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", received.Len(), total)
	}
	if acceptedFrom.IP != w.a.st.LocalIP() {
		t.Fatalf("accept peer %v", acceptedFrom)
	}
	if w.a.st.Stats.TCPRexmit.Value() > 0 {
		t.Fatalf("unexpected retransmissions on a clean network: %d", w.a.st.Stats.TCPRexmit.Value())
	}
}

func TestTCPSurvivesPacketLoss(t *testing.T) {
	w := newWorld(3)
	w.seg.Faults().SetDefaultRates(fault.Rates{Drop: 0.05})
	const total = 64 * 1024
	payload := make([]byte, total)
	w.rng.Read(payload)
	var received bytes.Buffer

	w.s.Spawn("server", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: 5001})
		w.b.st.Listen(ls, 5)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 8192)
		for {
			n, _, _, err := w.b.st.Recv(p, cs, buf, recvOptsNone())
			if err != nil || n == 0 {
				return
			}
			received.Write(buf[:n])
		}
	})
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		// Handshake segments can be lost too; connect retries via the
		// rexmt timer.
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		off := 0
		for off < total {
			n := 4096
			if off+n > total {
				n = total - off
			}
			wrote, err := w.a.st.Send(p, s, [][]byte{payload[off : off+n]}, stack.SendOpts{})
			if err != nil {
				t.Errorf("send: %v", err)
				return
			}
			off += wrote
		}
		w.a.st.Close(p, s)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(received.Bytes(), payload) {
		t.Fatalf("stream corrupted under loss: got %d want %d bytes", received.Len(), total)
	}
	if w.a.st.Stats.TCPRexmit.Value()+w.a.st.Stats.TCPFastRexmit.Value() == 0 {
		t.Fatal("no retransmissions recorded despite 5% loss")
	}
}

func TestTCPConnectRefused(t *testing.T) {
	w := newWorld(4)
	var err error
	w.s.Spawn("client", func(p *sim.Proc) {
		s := w.a.st.NewSocket(wire.ProtoTCP)
		err = w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5999})
	})
	if e := w.s.Run(); e != nil {
		t.Fatal(e)
	}
	if !errors.Is(err, socketapi.ErrConnRefused) {
		t.Fatalf("err = %v, want ECONNREFUSED", err)
	}
}

// TestTCPConnectAgainAfterRefusal: a TCP socket whose connect was
// refused connects again, to a listener, and moves data both ways. Its
// first open took the control block allocated with the socket; the
// second gets a block of its own, so the refused one is never reset
// under the socket that still names it.
func TestTCPConnectAgainAfterRefusal(t *testing.T) {
	w := newWorld(4)
	const port = 5999
	w.s.Spawn("server", func(p *sim.Proc) {
		p.Sleep(time.Second) // after the first connect is refused
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: port})
		w.b.st.Listen(ls, 1)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64)
		n, _, _, err := w.b.st.Recv(p, cs, buf, recvOptsNone())
		if err != nil {
			t.Error(err)
			return
		}
		w.b.st.Send(p, cs, [][]byte{bytes.ToUpper(buf[:n])}, stack.SendOpts{})
		w.b.st.Close(p, cs)
		w.b.st.Close(p, ls)
	})
	var reply []byte
	w.s.Spawn("client", func(p *sim.Proc) {
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if tcb, spare := stack.ControlBlocks(s); tcb != nil || !spare {
			t.Errorf("a new socket has control block %v, spare %v; want none yet, and its own spare", tcb, spare)
		}
		dst := stack.Addr{IP: w.b.st.LocalIP(), Port: port}
		if err := w.a.st.Connect(p, s, dst); !errors.Is(err, socketapi.ErrConnRefused) {
			t.Errorf("first connect = %v, want ECONNREFUSED", err)
			return
		}
		refused, spare := stack.ControlBlocks(s)
		if refused == nil || spare {
			t.Errorf("after the refused open: control block %v, spare %v; want the socket's own block taken", refused, spare)
		}
		p.Sleep(2 * time.Second)
		if err := w.a.st.Connect(p, s, dst); err != nil {
			t.Errorf("second connect: %v", err)
			return
		}
		if tcb, _ := stack.ControlBlocks(s); tcb == refused {
			t.Error("the second open reset the refused open's control block in place")
		}
		if _, err := w.a.st.Send(p, s, [][]byte{[]byte("again")}, stack.SendOpts{}); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64)
		n, _, _, err := w.a.st.Recv(p, s, buf, recvOptsNone())
		if err != nil {
			t.Error(err)
		}
		reply = buf[:n]
		w.a.st.Close(p, s)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if string(reply) != "AGAIN" {
		t.Fatalf("reply = %q, want %q", reply, "AGAIN")
	}
}

func TestUDPPortUnreachable(t *testing.T) {
	w := newWorld(5)
	var recvErr error
	w.s.Spawn("client", func(p *sim.Proc) {
		s := w.a.st.NewSocket(wire.ProtoUDP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5999}); err != nil {
			t.Error(err)
			return
		}
		if _, err := w.a.st.Send(p, s, [][]byte{[]byte("anyone?")}, stack.SendOpts{}); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 100)
		_, _, _, recvErr = w.a.st.Recv(p, s, buf, recvOptsNone())
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(recvErr, socketapi.ErrConnRefused) {
		t.Fatalf("recv err = %v, want ECONNREFUSED (from ICMP port unreachable)", recvErr)
	}
	if w.b.st.Stats.UDPNoPort.Value() == 0 || w.b.st.Stats.ICMPOut.Value() == 0 {
		t.Fatal("unreachable datagram not reported via ICMP")
	}
}

func TestARPResolutionOncePerPeer(t *testing.T) {
	w := newWorld(6)
	w.s.Spawn("client", func(p *sim.Proc) {
		s := w.a.st.NewSocket(wire.ProtoUDP)
		dst := stack.Addr{IP: w.b.st.LocalIP(), Port: 9}
		for i := 0; i < 5; i++ {
			if _, err := w.a.st.Send(p, s, [][]byte{[]byte("x")}, sendOptsTo(&dst)); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(time.Millisecond)
		}
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.a.st.ARP().LookupCached(w.b.st.LocalIP()); !ok {
		t.Fatal("peer not in ARP cache")
	}
	// Exactly one ARP request should have hit the wire (no per-packet ARP).
	arpFrames := 0
	_ = arpFrames
	if w.b.st.Stats.UDPIn.Value() != 5 {
		t.Fatalf("expected 5 datagrams delivered, got %d (ARP stalls?)", w.b.st.Stats.UDPIn.Value())
	}
}

func TestIPFragmentationRoundTrip(t *testing.T) {
	w := newWorld(7)
	const size = 4000 // > MTU: must fragment into 3 pieces
	var got []byte
	w.s.Spawn("server", func(p *sim.Proc) {
		s := w.b.st.NewSocket(wire.ProtoUDP)
		w.b.st.Bind(s, stack.Addr{Port: 2222})
		buf := make([]byte, 9000)
		n, _, _, err := w.b.st.Recv(p, s, buf, recvOptsNone())
		if err != nil {
			t.Error(err)
			return
		}
		got = buf[:n]
	})
	payload := make([]byte, size)
	w.rng.Read(payload)
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoUDP)
		dst := stack.Addr{IP: w.b.st.LocalIP(), Port: 2222}
		if _, err := w.a.st.Send(p, s, [][]byte{payload}, sendOptsTo(&dst)); err != nil {
			t.Error(err)
		}
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("fragmented datagram corrupted (%d bytes)", len(got))
	}
	if w.a.st.Stats.IPFragsOut.Value() < 3 {
		t.Fatalf("fragments out = %d, want >= 3", w.a.st.Stats.IPFragsOut.Value())
	}
	if w.b.st.Stats.IPReasmOK.Value() != 1 {
		t.Fatalf("reassemblies = %d", w.b.st.Stats.IPReasmOK.Value())
	}
}

func TestPing(t *testing.T) {
	w := newWorld(8)
	ok := false
	w.s.Spawn("pinger", func(p *sim.Proc) {
		ok = w.a.st.Ping(p, w.b.st.LocalIP(), 42, 10)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ping failed")
	}
}

func TestZeroWindowAndResume(t *testing.T) {
	w := newWorld(9)
	const total = 64 * 1024
	payload := make([]byte, total)
	w.rng.Read(payload)
	var received bytes.Buffer

	w.s.Spawn("server", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.SetOption(ls, socketapi.SoRcvBuf, 4096) // small window
		w.b.st.Bind(ls, stack.Addr{Port: 5001})
		w.b.st.Listen(ls, 1)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		// Let the sender fill the window and stall before draining.
		p.Sleep(3 * time.Second)
		buf := make([]byte, 2048)
		for {
			n, _, _, err := w.b.st.Recv(p, cs, buf, recvOptsNone())
			if err != nil || n == 0 {
				return
			}
			received.Write(buf[:n])
			p.Sleep(10 * time.Millisecond) // slow reader
		}
	})
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		if _, err := w.a.st.Send(p, s, [][]byte{payload}, stack.SendOpts{}); err != nil {
			t.Errorf("send: %v", err)
		}
		w.a.st.Close(p, s)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(received.Bytes(), payload) {
		t.Fatalf("stream corrupted through zero-window stall: %d bytes", received.Len())
	}
}

func TestMsgPeek(t *testing.T) {
	w := newWorld(10)
	w.s.Spawn("server", func(p *sim.Proc) {
		s := w.b.st.NewSocket(wire.ProtoUDP)
		w.b.st.Bind(s, stack.Addr{Port: 1111})
		buf := make([]byte, 100)
		n, _, _, _ := w.b.st.Recv(p, s, buf, stack.RecvOpts{Peek: true})
		if string(buf[:n]) != "hello" {
			t.Errorf("peek got %q", buf[:n])
		}
		n, _, _, _ = w.b.st.Recv(p, s, buf, recvOptsNone())
		if string(buf[:n]) != "hello" {
			t.Errorf("recv after peek got %q", buf[:n])
		}
	})
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoUDP)
		dst := stack.Addr{IP: w.b.st.LocalIP(), Port: 1111}
		w.a.st.Send(p, s, [][]byte{[]byte("hello")}, sendOptsTo(&dst))
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationMidStream(t *testing.T) {
	// Establish A<->B, move B's session to a second stack instance on the
	// same host mid-transfer (the library-migration mechanism), and check
	// the stream completes intact.
	w := newWorld(11)
	const phase1, phase2 = 10000, 30000
	payload := make([]byte, phase1+phase2)
	w.rng.Read(payload)
	var received bytes.Buffer
	migrated := make(chan struct{}, 1)
	_ = migrated

	w.s.Spawn("server", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: 5001})
		w.b.st.Listen(ls, 1)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		for received.Len() < phase1 {
			n, _, _, err := w.b.st.Recv(p, cs, buf, recvOptsNone())
			if err != nil || n == 0 {
				t.Errorf("phase1 recv: n=%d err=%v", n, err)
				return
			}
			received.Write(buf[:n])
		}
		// Migrate: export from the stack and import back (round trip
		// through the serialized form, as a real migration would).
		ss := new(stack.TCPSessionState)
		if err := w.b.st.ExportTCPSession(p, cs, ss); err != nil {
			t.Errorf("export: %v", err)
			return
		}
		if ss.WireSize() <= 0 {
			t.Error("state has no wire size")
		}
		cs2 := w.b.st.ImportTCPSession(p, ss)
		for {
			n, _, _, err := w.b.st.Recv(p, cs2, buf, recvOptsNone())
			if err != nil {
				t.Errorf("phase2 recv: %v", err)
				return
			}
			if n == 0 {
				break
			}
			received.Write(buf[:n])
		}
		w.b.st.Close(p, cs2)
	})
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		off := 0
		for off < len(payload) {
			n := 4096
			if off+n > len(payload) {
				n = len(payload) - off
			}
			wrote, err := w.a.st.Send(p, s, [][]byte{payload[off : off+n]}, stack.SendOpts{})
			if err != nil {
				t.Errorf("send: %v", err)
				return
			}
			off += wrote
		}
		w.a.st.Close(p, s)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(received.Bytes(), payload) {
		t.Fatalf("stream corrupted across migration: got %d want %d", received.Len(), len(payload))
	}
}

func TestSelectReadiness(t *testing.T) {
	w := newWorld(12)
	w.s.Spawn("main", func(p *sim.Proc) {
		us := w.b.st.NewSocket(wire.ProtoUDP)
		w.b.st.Bind(us, stack.Addr{Port: 7777})
		if us.Readable() {
			t.Error("empty socket readable")
		}
		if !us.Writable() {
			t.Error("UDP socket must be writable")
		}
		cl := w.a.st.NewSocket(wire.ProtoUDP)
		dst := stack.Addr{IP: w.b.st.LocalIP(), Port: 7777}
		w.a.st.Send(p, cl, [][]byte{[]byte("wake")}, sendOptsTo(&dst))
		p.Sleep(100 * time.Millisecond)
		if !us.Readable() {
			t.Error("socket with queued datagram not readable")
		}
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWaitThenClose(t *testing.T) {
	w := newWorld(13)
	var active *stack.Socket
	w.s.Spawn("server", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: 5001})
		w.b.st.Listen(ls, 1)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 10)
		for {
			n, _, _, err := w.b.st.Recv(p, cs, buf, recvOptsNone())
			if err != nil || n == 0 {
				break
			}
		}
		w.b.st.Close(p, cs)
	})
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		w.a.st.Send(p, s, [][]byte{[]byte("bye")}, stack.SendOpts{})
		w.a.st.Close(p, s) // active closer: must pass through TIME_WAIT
		active = s
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	// Directly after the workload, the active closer should be in
	// TIME_WAIT (or FIN_WAIT_2 if the passive FIN is still in flight).
	if err := w.s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := stack.TCPStateOf(active); st != "TIME_WAIT" {
		t.Fatalf("active closer state = %s, want TIME_WAIT", st)
	}
	// After 2MSL (60 s) the connection must be fully closed.
	if err := w.s.RunFor(70 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := stack.TCPStateOf(active); st != "CLOSED" {
		t.Fatalf("after 2MSL state = %s, want CLOSED", st)
	}
}
