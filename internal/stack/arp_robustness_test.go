package stack_test

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/wire"
)

// arpPendingBudget spells out the accounting this file pins down: an
// unresolved ARP entry queues at most arpMaxPendingPkts (8) outputs;
// resolution tries 1 initial request plus arpMaxRetries (5) retries at
// one per second before giving up and dropping the whole queue.
const (
	arpPendingMax   = 8
	arpTotalReqs    = 6
	arpGiveUpWithin = 10 * time.Second
)

// TestARPResolutionFailureAccounting sends a burst of datagrams to an
// address nobody owns and checks PendingDropped to the packet: the
// overflow beyond the per-entry queue is dropped immediately, the
// queued remainder when resolution gives up — and exactly six request
// broadcasts ever hit the wire.
func TestARPResolutionFailureAccounting(t *testing.T) {
	w := newWorld(17)
	dead := wire.IP(10, 0, 0, 99) // on-link, no such host
	const burst = 10

	w.s.Spawn("burst", func(p *sim.Proc) {
		s := w.a.st.NewSocket(wire.ProtoUDP)
		for i := 0; i < burst; i++ {
			if _, err := w.a.st.Send(p, s, [][]byte{[]byte("x")}, stack.SendOpts{To: &stack.Addr{IP: dead, Port: 7}}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
		if got := w.a.st.ARP().PendingDropped; got != burst-arpPendingMax {
			t.Errorf("PendingDropped after burst = %d, want %d (queue overflow)", got, burst-arpPendingMax)
		}
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.s.RunFor(arpGiveUpWithin); err != nil {
		t.Fatal(err)
	}

	if got := w.a.st.ARP().PendingDropped; got != burst {
		t.Errorf("PendingDropped after give-up = %d, want %d (2 overflow + 8 abandoned)", got, burst)
	}
	if _, ok := w.a.st.ARP().LookupCached(dead); ok {
		t.Errorf("gave-up entry still cached")
	}
	// The only wire traffic is the request broadcasts: 1 on first use +
	// 5 retries, never one per queued packet.
	if got := w.seg.Stats().FramesSent.Value(); got != arpTotalReqs {
		t.Errorf("frames on the wire = %d, want %d ARP requests", got, arpTotalReqs)
	}
}

// TestARPLateResolutionFlushesQueue verifies the complement: if the
// mapping arrives before give-up, every queued packet goes out and
// nothing is dropped.
func TestARPLateResolutionFlushesQueue(t *testing.T) {
	w := newWorld(18)
	ghost := wire.IP(10, 0, 0, 50)
	ghostMAC := wire.MAC{0xde, 0xad, 0, 0, 0, 50}
	const queued = 5

	w.s.Spawn("sender", func(p *sim.Proc) {
		s := w.a.st.NewSocket(wire.ProtoUDP)
		for i := 0; i < queued; i++ {
			if _, err := w.a.st.Send(p, s, [][]byte{[]byte("y")}, stack.SendOpts{To: &stack.Addr{IP: ghost, Port: 7}}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
		// Resolution completes (say, a reply finally gets through) two
		// seconds in — inside the retry window.
		p.Sleep(2 * time.Second)
		w.a.st.ARP().Insert(ghost, ghostMAC)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}

	if got := w.a.st.ARP().PendingDropped; got != 0 {
		t.Errorf("PendingDropped = %d, want 0 (queue flushed on learn)", got)
	}
	if got := w.a.st.Stats.UDPOut.Value(); got != queued {
		t.Errorf("UDPOut = %d, want %d", got, queued)
	}
	// The host's NIC carried the flushed datagrams plus the request
	// broadcasts sent while unresolved (initial + retries at 1/s for 2s).
	if tx := w.a.host.NIC.TxFrames.Value(); tx < queued+1 || tx > queued+4 {
		t.Errorf("sender NIC TxFrames = %d, want %d datagrams + 1-4 ARP requests", tx, queued)
	}
}

// TestARPEntryExpiryForcesReResolution pins cache aging: a resolved
// entry vanishes after its 20 s TTL, and the next output resolves
// afresh instead of using stale state.
func TestARPEntryExpiryForcesReResolution(t *testing.T) {
	w := newWorld(19)
	var first, second int // ARP frames seen on the segment

	countARP := func() int {
		// Count request broadcasts from A by looking at B's deliveries of
		// broadcast ARP traffic; B replies to each, so pairs match.
		return w.a.st.ARP().Version()
	}

	w.s.Spawn("talk", func(p *sim.Proc) {
		s := w.a.st.NewSocket(wire.ProtoUDP)
		w.a.st.Send(p, s, [][]byte{[]byte("one")}, stack.SendOpts{To: &stack.Addr{IP: w.b.st.LocalIP(), Port: 7}})
		p.Sleep(100 * time.Millisecond)
		if _, ok := w.a.st.ARP().LookupCached(w.b.st.LocalIP()); !ok {
			t.Error("peer not cached after first exchange")
		}
		first = countARP()
		// Sit idle past the 20 s TTL.
		p.Sleep(25 * time.Second)
		if _, ok := w.a.st.ARP().LookupCached(w.b.st.LocalIP()); ok {
			t.Error("entry survived past its TTL")
		}
		w.a.st.Send(p, s, [][]byte{[]byte("two")}, stack.SendOpts{To: &stack.Addr{IP: w.b.st.LocalIP(), Port: 7}})
		p.Sleep(100 * time.Millisecond)
		second = countARP()
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if second <= first {
		t.Errorf("no fresh resolution after expiry: version %d -> %d", first, second)
	}
}

// TestARPWaiterBesideFullQueue pins a WaitResolve caller's place on an
// entry whose frame queue is full: it is not a frame, so it takes no
// frame slot and is never counted in PendingDropped. A reply wakes it
// with the learned address when the reply arrives, not when its timeout
// runs out; if resolution gives up instead, it times out uncounted.
func TestARPWaiterBesideFullQueue(t *testing.T) {
	for _, replyAt := range []time.Duration{time.Second, 0} {
		w := newWorld(20)
		ghost := wire.IP(10, 0, 0, 60)
		ghostMAC := wire.MAC{0xde, 0xad, 0, 0, 0, 60}
		const burst, timeout = arpPendingMax + 2, 15 * time.Second

		var (
			mac      wire.MAC
			resolved bool
			asked    sim.Time
			woke     sim.Time
		)
		w.s.Spawn("sender", func(p *sim.Proc) {
			s := w.a.st.NewSocket(wire.ProtoUDP)
			for i := 0; i < burst; i++ {
				w.a.st.Send(p, s, [][]byte{[]byte("z")}, stack.SendOpts{To: &stack.Addr{IP: ghost, Port: 7}})
			}
			if got := w.a.st.ARP().PendingDropped; got != burst-arpPendingMax {
				t.Errorf("PendingDropped after burst = %d, want %d", got, burst-arpPendingMax)
			}
			asked = p.Now()
			mac, resolved = w.a.st.ARP().WaitResolve(p, ghost, timeout)
			woke = p.Now()
		})
		if replyAt > 0 {
			w.s.Spawn("reply", func(p *sim.Proc) {
				p.Sleep(replyAt)
				w.a.st.ARP().Insert(ghost, ghostMAC)
			})
		}
		if err := w.s.Run(); err != nil {
			t.Fatal(err)
		}

		arp := w.a.st.ARP()
		if replyAt > 0 {
			if !resolved || mac != ghostMAC || woke != sim.Time(replyAt) {
				t.Errorf("reply at %v: waiter got (%v, %v) at %v, want (%v, true) at the reply",
					replyAt, mac, resolved, woke, ghostMAC)
			}
			if arp.PendingDropped != burst-arpPendingMax {
				t.Errorf("reply at %v: PendingDropped = %d, want %d (the overflowing frames only)",
					replyAt, arp.PendingDropped, burst-arpPendingMax)
			}
			continue
		}
		if resolved || woke.Sub(asked) != timeout {
			t.Errorf("no reply: waiter got (%v, %v) after %v, want a timeout after %v", mac, resolved, woke.Sub(asked), timeout)
		}
		if arp.PendingDropped != burst {
			t.Errorf("no reply: PendingDropped = %d, want %d (every frame, not the waiter)", arp.PendingDropped, burst)
		}
	}
}
