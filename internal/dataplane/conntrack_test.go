package dataplane

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/wire"
)

// udpTo builds a distinct client flow toward the VIP.
func udpTo(h *harness, sport uint16) {
	h.p.Ingress(udpFrame(clientMAC, lbMAC, clientIP, vipIP, sport, vipPort, []byte("x"), true))
	h.takeSent()
}

// TestIdleGCPerState: transient flows expire on the short timer while
// established ones survive it.
func TestIdleGCPerState(t *testing.T) {
	h := newHarness(t, nil)
	h.vip(t)

	// Flow A: completes the handshake (established, long timer).
	h.p.Ingress(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, 4000, vipPort, wire.TCPSyn, 1, 0, nil))
	a := h.p.sortedFlowsByID()[0]
	be := h.p.sortedFlows()[0].vip.backends[a.backend]
	h.p.Ingress(tcpFrame(be.MAC, lbMAC, be.IP, lbIP, bePort, a.snat, wire.TCPSyn|wire.TCPAck, 9, 2, nil))
	h.p.Ingress(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, 4000, vipPort, wire.TCPAck, 2, 10, nil))
	// Flow B: a lone SYN (embryonic, transient timer).
	h.p.Ingress(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, 4001, vipPort, wire.TCPSyn, 1, 0, nil))
	h.takeSent()

	if h.p.FlowCount() != 2 {
		t.Fatalf("flows = %d", h.p.FlowCount())
	}
	// Past the transient limit but well inside the established one.
	if err := h.s.RunFor(DefaultTransientIdle + 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if h.p.FlowCount() != 1 {
		t.Fatalf("flows = %d after transient GC", h.p.FlowCount())
	}
	if h.p.StateCount(StateEstablished) != 1 || h.p.StateCount(StateSynSent) != 0 {
		t.Fatalf("state gauges: est=%d syn_sent=%d",
			h.p.StateCount(StateEstablished), h.p.StateCount(StateSynSent))
	}
	// And past the established limit everything is gone.
	if err := h.s.RunFor(DefaultEstablishedIdle); err != nil {
		t.Fatal(err)
	}
	if h.p.FlowCount() != 0 || h.p.SNATInUse() != 0 {
		t.Fatalf("flows=%d snat=%d at end", h.p.FlowCount(), h.p.SNATInUse())
	}
	if h.p.Stats.CTExpired.Value() != 2 {
		t.Fatalf("expired = %d", h.p.Stats.CTExpired.Value())
	}
}

// TestTableFullEviction: at capacity the stalest flow is evicted to
// admit a new one, deterministically.
func TestTableFullEviction(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.MaxFlows = 2 })
	h.vip(t)

	udpTo(h, 5000)
	h.s.RunFor(time.Millisecond * 7)
	udpTo(h, 5001)
	h.s.RunFor(time.Millisecond * 7)

	// Refresh 5000 so 5001 is now the stalest.
	udpTo(h, 5000)
	h.s.RunFor(time.Millisecond * 7)

	udpTo(h, 5002)
	if h.p.Stats.CTEvicted.Value() != 1 {
		t.Fatalf("evicted = %d", h.p.Stats.CTEvicted.Value())
	}
	if h.p.FlowCount() != 2 {
		t.Fatalf("flows = %d", h.p.FlowCount())
	}
	for _, f := range h.p.sortedFlows() {
		if f.orig.SrcPort == 5001 {
			t.Fatal("victim should have been the stalest flow (5001)")
		}
	}
}

// TestRSTClosesFlow: a reset from either side moves the flow to closed,
// which lingers only briefly.
func TestRSTClosesFlow(t *testing.T) {
	h := newHarness(t, nil)
	h.vip(t)
	h.p.Ingress(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, 4000, vipPort, wire.TCPSyn, 1, 0, nil))
	f := h.p.sortedFlowsByID()[0]
	h.p.Ingress(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, 4000, vipPort, wire.TCPRst, 2, 0, nil))
	if f.state != StateClosed {
		t.Fatalf("state = %v", f.state)
	}
	if err := h.s.RunFor(DefaultClosedLinger + 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if h.p.FlowCount() != 0 {
		t.Fatalf("closed flow survived linger: %d", h.p.FlowCount())
	}
}

func TestPortAllocRoundRobin(t *testing.T) {
	a := newPortAlloc(61000, 3)
	p1, _ := a.alloc()
	p2, _ := a.alloc()
	if p1 != 61000 || p2 != 61001 {
		t.Fatalf("first ports: %d %d", p1, p2)
	}
	a.free(p1)
	// Round-robin: the scan resumes after the last allocation instead of
	// immediately reusing p1, so recently freed ports rest (TIME_WAIT
	// hygiene).
	p3, _ := a.alloc()
	if p3 != 61002 {
		t.Fatalf("p3 = %d, want 61002", p3)
	}
	p4, _ := a.alloc()
	if p4 != 61000 {
		t.Fatalf("p4 = %d, want 61000 (wrapped)", p4)
	}
	if _, ok := a.alloc(); ok {
		t.Fatal("pool should be exhausted")
	}
	a.free(p3)
	if got, ok := a.alloc(); !ok || got != p3 {
		t.Fatalf("realloc = %d/%v", got, ok)
	}
}

func TestTupleOrderTotal(t *testing.T) {
	a := wire.Flow{Src: wire.IP(10, 0, 0, 1), Dst: wire.IP(10, 0, 0, 2), SrcPort: 1, DstPort: 2, Proto: wire.ProtoTCP}
	b := a
	b.SrcPort = 3
	c := a
	c.Proto = wire.ProtoUDP
	if !a.Less(b) || b.Less(a) {
		t.Fatal("port order broken")
	}
	if !a.Less(c) || c.Less(a) {
		t.Fatal("proto order broken")
	}
	if a.Less(a) {
		t.Fatal("irreflexivity broken")
	}
}

// TestFlowsSnapshotSorted: the rendered flow table is ordered by the
// original tuple regardless of insertion order.
func TestFlowsSnapshotSorted(t *testing.T) {
	h := newHarness(t, nil)
	h.vip(t)
	for _, sport := range []uint16{5003, 5001, 5002} {
		udpTo(h, sport)
	}
	rows := h.p.Flows()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Client >= rows[i].Client {
			t.Fatalf("rows out of order: %q then %q", rows[i-1].Client, rows[i].Client)
		}
	}
	if rows[0].Proto != "udp" || rows[0].State != "new" {
		t.Fatalf("row render: %+v", rows[0])
	}
}

// TestExpiryOrderFree: gc walks the flow table in map order, so a
// removal must depend on nothing but the flow's own state. Three TCP
// flows expire in one tick, then three UDP flows in another while two
// refreshed ones stay; ten runs, each with a fresh table (and so a fresh
// iteration order), must reach the same counters, backend pins and
// SNAT state, down to the next port the allocator hands out.
func TestExpiryOrderFree(t *testing.T) {
	run := func() string {
		h := newHarness(t, nil)
		v := h.vip(t)
		for sport := uint16(6000); sport < 6003; sport++ {
			h.p.Ingress(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, sport, vipPort, wire.TCPSyn, 1, 0, nil))
		}
		for sport := uint16(5000); sport < 5005; sport++ {
			udpTo(h, sport)
		}
		h.takeSent()
		var expired []uint64
		step := func(d time.Duration) {
			if err := h.s.RunFor(d); err != nil {
				t.Fatal(err)
			}
			expired = append(expired, h.p.Stats.CTExpired.Value())
		}
		step(DefaultTransientIdle - DefaultGCInterval/2)
		step(DefaultGCInterval)
		udpTo(h, 5000)
		udpTo(h, 5001)
		step(DefaultUDPIdle - DefaultTransientIdle - DefaultGCInterval)
		step(DefaultGCInterval)
		if want := []uint64{0, 3, 3, 6}; !slices.Equal(expired, want) {
			t.Fatalf("expired %v across the ticks, want %v", expired, want)
		}
		var live []int
		for _, b := range v.backends {
			live = append(live, b.liveFlows)
		}
		next, _ := h.p.snat.alloc()
		return fmt.Sprint(h.p.FlowCount(), h.p.stateCount, live, h.p.SNATInUse(), next)
	}
	want := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: flows, states, backend pins, SNAT in use and next port %s, first run %s", i, got, want)
		}
	}
}
