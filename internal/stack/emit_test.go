package stack

import (
	"slices"
	"testing"
	"time"

	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestResolvedEmitAllocatesOnlyTheFrame pins the transmit path's heap
// cost: a UDP datagram to a resolved next hop allocates its link frame
// and nothing else.
func TestResolvedEmitAllocatesOnlyTheFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	st := testStack(t)
	peer := Addr{IP: wire.IP(10, 0, 0, 2), Port: 7}
	st.arp.Insert(peer.IP, wire.MAC{2})
	src := Addr{IP: st.cfg.LocalIP, Port: 5000}
	payload := make([]byte, 512)
	ch := mbuf.New()
	send := func() {
		ch.AppendBytes(payload)
		if err := st.udpOutput(nil, src, peer, ch); err != nil {
			t.Fatal(err)
		}
	}
	send() // warm the mbuf pools
	if n := testing.AllocsPerRun(100, send); n != 1 {
		t.Fatalf("a resolved UDP send allocates %.1f objects, want 1 (the frame)", n)
	}
}

// TestARPFlushOrder pins what learning an address releases: the frames
// queued on the entry go out in the order they were queued, each
// carrying the learned address, and a WaitResolve caller queued between
// them is woken at its place in that order. Transmit starts a proc per
// frame, so the order the sim runs those procs and the waiter's wake-up
// in is the order learn released them in.
func TestARPFlushOrder(t *testing.T) {
	st := testStack(t)
	s := st.cfg.Sim
	peer := Addr{IP: wire.IP(10, 0, 0, 9), Port: 7}
	peerMAC := wire.MAC{0xde, 0xad, 0, 0, 0, 9}
	payloadAt := wire.EthHeaderLen + wire.IPv4HeaderLen + wire.UDPHeaderLen

	var order []string
	var macs []wire.MAC
	st.cfg.Transmit = func(frame []byte) error {
		eh, _ := wire.UnmarshalEth(frame)
		if eh.Type != wire.EtherTypeIPv4 {
			return nil // the ARP request
		}
		macs = append(macs, eh.Dst)
		name := string(frame[payloadAt:])
		s.Spawn(name, func(*sim.Proc) { order = append(order, name) })
		return nil
	}
	send := func(p *sim.Proc, name string) {
		if err := st.udpOutput(p, Addr{IP: st.cfg.LocalIP, Port: 5000}, peer, mbuf.FromBytesCopy([]byte(name))); err != nil {
			t.Error(err)
		}
	}

	s.Spawn("sender", func(p *sim.Proc) {
		send(p, "f0")
		send(p, "f1")
		p.Sleep(time.Microsecond) // the waiter queues here
		send(p, "f2")
		p.Sleep(time.Millisecond)
		st.arp.Insert(peer.IP, peerMAC)
	})
	var mac wire.MAC
	var woke sim.Time
	s.Spawn("waiter", func(p *sim.Proc) {
		mac, _ = st.arp.WaitResolve(p, peer.IP, 10*time.Second)
		woke = p.Now()
		order = append(order, "waiter")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	if want := []string{"f0", "f1", "waiter", "f2"}; !slices.Equal(order, want) {
		t.Fatalf("released %v, want %v", order, want)
	}
	for i, m := range macs {
		if m != peerMAC {
			t.Errorf("frame %d went to %v, want the learned %v", i, m, peerMAC)
		}
	}
	if mac != peerMAC || woke != sim.Time(time.Millisecond+time.Microsecond) {
		t.Errorf("waiter got %v at %v, want %v when the address was learned", mac, woke, peerMAC)
	}
}
