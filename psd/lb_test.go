package psd

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestLBConservation runs the VIP churn workload — kill one backend
// mid-run, add a fresh one — on every architecture column and checks
// the conservation laws: each client connection served by exactly one
// backend or visibly failed, zero leaked flows, zero leaked SNAT ports.
func TestLBConservation(t *testing.T) {
	for _, f := range ArchFlavors() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			cfg := DefaultLB(7)
			cfg.Arch = f.New()
			rep, err := RunLB(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Check(); err != nil {
				t.Fatal(err)
			}
			if rep.Rehomed+rep.Resets == 0 {
				t.Errorf("backend kill at %v left no trace: rehomed=0 resets=0", cfg.KillAt)
			}
			// The added backend must actually receive traffic: it owns
			// ~1/3 of the Maglev table for the second half of the run.
			if rep.BackendServed[len(rep.BackendServed)-1] == 0 {
				t.Errorf("added backend served 0 connections; per-backend %v", rep.BackendServed)
			}
			if rep.Failed > int64(rep.ConnsPlan)/2 {
				t.Errorf("churn failed %d of %d connections (kill window should cost only in-flight conns)",
					rep.Failed, rep.ConnsPlan)
			}
		})
	}
}

// TestLBNoChurn is the steady-state sanity point: no kill, no add —
// every connection must be served and spread across the whole pool.
func TestLBNoChurn(t *testing.T) {
	cfg := DefaultLB(3)
	cfg.KillAt, cfg.AddAt = 0, 0
	rep, err := RunLB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("steady state failed %d connections", rep.Failed)
	}
	for i, c := range rep.BackendServed {
		if c == 0 {
			t.Errorf("backend %d served 0 of %d connections (Maglev spread broken)", i, rep.Served)
		}
	}
	if rep.LBConns != int64(rep.ConnsPlan) {
		t.Errorf("plane admitted %d connections, want %d", rep.LBConns, rep.ConnsPlan)
	}
}

// TestLBDeterminism runs the identical churn config twice per
// architecture and requires byte-identical registry snapshots — the
// stateful tables (conntrack, SNAT allocator, Maglev pool) must not
// leak map-iteration or wall-clock nondeterminism into anything
// observable. CI re-runs this battery with -count=2.
func TestLBDeterminism(t *testing.T) {
	for _, f := range ArchFlavors() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			digest := func() string {
				cfg := DefaultLB(11)
				cfg.Arch = f.New()
				rep, err := RunLB(cfg)
				if err != nil {
					t.Fatal(err)
				}
				out := fmt.Sprintf("served=%d failed=%d per-backend=%v rehomed=%d resets=%d\n",
					rep.Served, rep.Failed, rep.BackendServed, rep.Rehomed, rep.Resets)
				for _, it := range rep.Snapshot.Items {
					out += fmt.Sprintf("%s %v\n", it.Name, it.Value)
				}
				return out
			}
			a, b := digest(), digest()
			if a != b {
				t.Fatalf("two identical runs diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
			}
		})
	}
}

// TestLBFlowPinning verifies session affinity directly: with a long-
// lived conntrack entry in place, resizing the pool must not move the
// pinned flow (AddBackend never rewrites existing NAT state).
func TestLBFlowPinning(t *testing.T) {
	cfg := DefaultLB(5)
	cfg.KillAt = 0 // only grow the pool
	cfg.AddAt = 200 * time.Millisecond
	rep, err := RunLB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(); err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("pool growth broke %d connections (pinned flows must survive a resize)", rep.Failed)
	}
	if rep.Resets != 0 || rep.Rehomed != 0 {
		t.Fatalf("pool growth reset %d / rehomed %d flows; AddBackend must not touch existing state",
			rep.Resets, rep.Rehomed)
	}
}

// TestLBRuntUDPPassed: on a real host the balancer passes — does not
// NAT, track or hairpin — a padded 60-byte frame whose UDP datagram ends
// (IP total length 24) before its transport header does. The plane's own
// parser used to find ports in the padding and forward the frame to a
// backend (rewrites=1 hairpins=1).
func TestLBRuntUDPPassed(t *testing.T) {
	n := New(1)
	lb := n.Host("lb", "10.0.0.1", Decomposed())
	be := n.Host("be", "10.0.0.2", Decomposed())
	cl := n.Host("cl", "10.0.0.3", Decomposed())
	vip, _ := ParseIP("10.0.0.100")
	if _, err := lb.InstallVIP("10.0.0.100", 80, BackendSpec{Host: be, Port: 8080}); err != nil {
		t.Fatal(err)
	}

	frame := make([]byte, 60)
	eh := wire.EthHeader{Dst: lb.kern.NIC.MAC(), Src: cl.kern.NIC.MAC(), Type: wire.EtherTypeIPv4}
	eh.Marshal(frame)
	ih := wire.IPv4Header{TotalLen: wire.IPv4HeaderLen + 4, TTL: wire.DefaultTTL, Proto: wire.ProtoUDP, Src: cl.ip, Dst: vip}
	ih.Marshal(frame[wire.EthHeaderLen:])
	ports := wire.UDPHeader{SrcPort: 4000, DstPort: 80, Length: 0xa5a5, Checksum: 0xa5a5}
	ports.Marshal(frame[wire.EthHeaderLen+wire.IPv4HeaderLen:]) // only the ports lie inside the datagram

	n.Spawn("inject", func(*Thread) { cl.kern.Transmit(frame) })
	if err := n.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := &lb.Dataplane().Stats
	if st.RxFrames.Value() == 0 {
		t.Fatal("the runt frame never reached the balancer's hook")
	}
	if st.Rewrites.Value() != 0 || st.Hairpins.Value() != 0 || st.CTCreated.Value() != 0 {
		t.Fatalf("runt UDP was NAT'ed: rewrites=%d hairpins=%d flows created=%d",
			st.Rewrites.Value(), st.Hairpins.Value(), st.CTCreated.Value())
	}
}

// TestLBHostOwnTrafficUntouched: the balancer's own applications talk
// TCP straight past its data plane. With a VIP installed, an application
// on the balancer host connects directly to a backend and accepts a
// connection from a client; the bytes arrive intact and the plane
// neither tracks, rewrites, drops nor absorbs any of it. A VIP exchange
// afterwards shows the plane was live all along.
func TestLBHostOwnTrafficUntouched(t *testing.T) {
	n := New(1)
	lb := n.Host("lb", "10.0.0.1", Decomposed())
	be := n.Host("be", "10.0.0.2", Decomposed())
	cl := n.Host("cl", "10.0.0.3", Decomposed())
	if _, err := lb.InstallVIP("10.0.0.100", 80, BackendSpec{Host: be, Port: 8080}); err != nil {
		t.Fatal(err)
	}
	vip, _ := ParseIP("10.0.0.100")

	// echo accepts one connection on port and returns what it reads.
	echo := func(h *Host, port uint16, size int) {
		name := fmt.Sprintf("%s.echo%d", h.Name(), port)
		app := h.NewApp(name)
		n.Spawn(name, func(p *Thread) {
			ls, _ := app.Socket(p, SockStream)
			app.Bind(p, ls, SockAddr{Port: port})
			app.Listen(p, ls, 1)
			fd, _, err := app.Accept(p, ls)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, size)
			for got := 0; got < size; {
				nr, err := app.Recv(p, fd, buf[got:], 0)
				if err != nil || nr == 0 {
					t.Errorf("%s: short read %d of %d (%v)", name, got, size, err)
					return
				}
				got += nr
			}
			app.Send(p, fd, buf, 0)
			app.Close(p, fd)
		})
	}
	// exchange connects from h to to at virtual time at, sends msg and
	// checks that it comes back whole.
	done := 0
	exchange := func(h *Host, name string, at time.Duration, to SockAddr, msg []byte) {
		app := h.NewApp(name)
		n.Spawn(name, func(p *Thread) {
			p.Sleep(at)
			fd, _ := app.Socket(p, SockStream)
			if err := app.Connect(p, fd, to); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if _, err := app.Send(p, fd, msg, 0); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			buf := make([]byte, len(msg))
			for got := 0; got < len(msg); {
				nr, err := app.Recv(p, fd, buf[got:], 0)
				if err != nil || nr == 0 {
					t.Errorf("%s: short echo %d of %d (%v)", name, got, len(msg), err)
					return
				}
				got += nr
			}
			if !bytes.Equal(buf, msg) {
				t.Errorf("%s: echo differs from what was sent", name)
			}
			app.Close(p, fd)
			done++
		})
	}

	direct := bytes.Repeat([]byte("lb->backend "), 1000)
	inbound := bytes.Repeat([]byte("client->lb "), 1000)
	viaVIP := []byte("client->vip")
	echo(be, 9000, len(direct))
	echo(lb, 7000, len(inbound))
	echo(be, 8080, len(viaVIP))
	exchange(lb, "lb-out", time.Millisecond, be.Addr(9000), direct)
	exchange(cl, "cl-in", time.Millisecond, lb.Addr(7000), inbound)

	st := &lb.Dataplane().Stats
	k := lb.kern
	var rx, created, rewrites, hairpins, drops, absorbed uint64
	n.Spawn("check", func(p *Thread) {
		p.Sleep(500 * time.Millisecond)
		rx, created, rewrites, hairpins = st.RxFrames.Value(), st.CTCreated.Value(), st.Rewrites.Value(), st.Hairpins.Value()
		drops, absorbed = k.HookDrops.Value(), k.HookAbsorbed.Value()
	})
	exchange(cl, "cl-vip", 600*time.Millisecond, SockAddr{Addr: vip, Port: 80}, viaVIP)
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}

	if done != 3 {
		t.Fatalf("%d of 3 exchanges completed", done)
	}
	if rx == 0 {
		t.Fatal("the host's own traffic never reached its hook")
	}
	if created != 0 || rewrites != 0 || hairpins != 0 || drops != 0 || absorbed != 0 {
		t.Fatalf("own traffic touched by the plane: ct.created=%d rewrites=%d hairpins=%d hook_drops=%d hook_absorbed=%d",
			created, rewrites, hairpins, drops, absorbed)
	}
	if st.CTCreated.Value() != 1 || st.Rewrites.Value() == 0 || k.HookAbsorbed.Value() == 0 {
		t.Fatalf("VIP exchange not balanced: ct.created=%d rewrites=%d hook_absorbed=%d",
			st.CTCreated.Value(), st.Rewrites.Value(), k.HookAbsorbed.Value())
	}
}
