package psd

import (
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

	n.Spawn("inject", func(*Thread) { cl.kern.RawTransmit(frame) })
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
