package router

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// testHost is a bare station that answers ARP for its address and
// captures every IP packet delivered to it.
type testHost struct {
	seg *simnet.Segment
	nic *simnet.NIC
	mac wire.MAC
	ip  wire.IPAddr
	got []ipPacket
}

type ipPacket struct {
	h    wire.IPv4Header
	body []byte
}

func newTestHost(seg *simnet.Segment, name string, mac wire.MAC, ip wire.IPAddr) *testHost {
	h := &testHost{seg: seg, mac: mac, ip: ip}
	h.nic = seg.AttachNamed(name, mac)
	h.nic.Rx = func(f simnet.Frame) {
		eh, err := wire.UnmarshalEth(f.Data)
		if err != nil {
			return
		}
		switch eh.Type {
		case wire.EtherTypeARP:
			ap, err := wire.UnmarshalARP(f.Data[wire.EthHeaderLen:])
			if err != nil || ap.Op != wire.ARPRequest || ap.TargetIP != h.ip {
				return
			}
			reply := wire.ARPPacket{
				Op:        wire.ARPReply,
				SenderMAC: h.mac,
				SenderIP:  h.ip,
				TargetMAC: ap.SenderMAC,
				TargetIP:  ap.SenderIP,
			}
			frame := make([]byte, wire.EthHeaderLen+wire.ARPLen)
			(&wire.EthHeader{Dst: ap.SenderMAC, Src: h.mac, Type: wire.EtherTypeARP}).Marshal(frame)
			copy(frame[wire.EthHeaderLen:], reply.Marshal())
			h.nic.Transmit(frame)
		case wire.EtherTypeIPv4:
			ih, hlen, err := wire.UnmarshalIPv4(f.Data[wire.EthHeaderLen:])
			if err != nil {
				return
			}
			body := f.Data[wire.EthHeaderLen+hlen : wire.EthHeaderLen+int(ih.TotalLen)]
			h.got = append(h.got, ipPacket{h: ih, body: append([]byte(nil), body...)})
		}
	}
	return h
}

// sendIP builds a UDP/IP frame addressed (at the link layer) to dstMAC
// and transmits it.
func (h *testHost) sendIP(dstMAC wire.MAC, dst wire.IPAddr, ttl uint8, payload []byte) {
	h.nic.Transmit(h.ipFrame(dstMAC, dst, ttl, payload))
}

// ipFrame builds the UDP/IP frame sendIP sends.
func (h *testHost) ipFrame(dstMAC wire.MAC, dst wire.IPAddr, ttl uint8, payload []byte) []byte {
	udp := make([]byte, wire.UDPHeaderLen+len(payload))
	binary.BigEndian.PutUint16(udp[0:2], 1111)
	binary.BigEndian.PutUint16(udp[2:4], 2222)
	binary.BigEndian.PutUint16(udp[4:6], uint16(len(udp)))
	copy(udp[wire.UDPHeaderLen:], payload)
	iph := wire.IPv4Header{
		TotalLen: uint16(wire.IPv4HeaderLen + len(udp)),
		TTL:      ttl,
		Proto:    wire.ProtoUDP,
		Src:      h.ip,
		Dst:      dst,
	}
	frame := make([]byte, wire.EthHeaderLen+wire.IPv4HeaderLen+len(udp))
	(&wire.EthHeader{Dst: dstMAC, Src: h.mac, Type: wire.EtherTypeIPv4}).Marshal(frame)
	iph.Marshal(frame[wire.EthHeaderLen : wire.EthHeaderLen+wire.IPv4HeaderLen])
	copy(frame[wire.EthHeaderLen+wire.IPv4HeaderLen:], udp)
	return frame
}

func mac(b byte) wire.MAC { return wire.MAC{0x02, 0, 0, 0, 0, b} }

// topo2 builds two subnets joined by one router and a host on each.
func topo2(s *sim.Sim) (*Router, *testHost, *testHost) {
	segA, segB := simnet.NewSegment(s), simnet.NewSegment(s)
	r := New(s, "core")
	r.Attach(segA, "a", mac(0xa0), wire.IP(10, 1, 0, 254), 24)
	r.Attach(segB, "b", mac(0xb0), wire.IP(10, 2, 0, 254), 24)
	ha := newTestHost(segA, "ha", mac(0x01), wire.IP(10, 1, 0, 1))
	hb := newTestHost(segB, "hb", mac(0x02), wire.IP(10, 2, 0, 1))
	return r, ha, hb
}

func TestForwardDecrementsTTL(t *testing.T) {
	s := sim.New(1)
	r, ha, hb := topo2(s)

	ha.sendIP(mac(0xa0), hb.ip, 64, []byte("hello"))
	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(hb.got) != 1 {
		t.Fatalf("hostB received %d packets, want 1", len(hb.got))
	}
	pkt := hb.got[0]
	if pkt.h.TTL != 63 {
		t.Errorf("forwarded TTL = %d, want 63", pkt.h.TTL)
	}
	if pkt.h.Src != ha.ip || pkt.h.Dst != hb.ip {
		t.Errorf("forwarded addresses %v -> %v", pkt.h.Src, pkt.h.Dst)
	}
	if string(pkt.body[wire.UDPHeaderLen:]) != "hello" {
		t.Errorf("payload corrupted in flight: %q", pkt.body)
	}
	if got := r.Stats.Forwarded.Value(); got != 1 {
		t.Errorf("Forwarded = %d, want 1", got)
	}
}

func TestTTLExpiryEmitsTimeExceeded(t *testing.T) {
	s := sim.New(2)
	r, ha, hb := topo2(s)

	ha.sendIP(mac(0xa0), hb.ip, 1, []byte("doomed"))
	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(hb.got) != 0 {
		t.Fatalf("hostB received %d packets, want 0", len(hb.got))
	}
	if len(ha.got) != 1 {
		t.Fatalf("hostA received %d packets, want 1 ICMP error", len(ha.got))
	}
	pkt := ha.got[0]
	if pkt.h.Proto != wire.ProtoICMP || pkt.h.Src != wire.IP(10, 1, 0, 254) {
		t.Fatalf("error packet proto=%d src=%v", pkt.h.Proto, pkt.h.Src)
	}
	ih, quote, err := wire.UnmarshalICMP(pkt.body)
	if err != nil {
		t.Fatal(err)
	}
	if ih.Type != wire.ICMPTimeExceeded || ih.Code != wire.ICMPCodeTTLExceeded {
		t.Errorf("ICMP type/code = %d/%d, want %d/%d", ih.Type, ih.Code, wire.ICMPTimeExceeded, wire.ICMPCodeTTLExceeded)
	}
	// The quote holds the offending IP header + 8 transport bytes.
	oh, _, err := wire.UnmarshalIPv4(quote)
	if err != nil {
		t.Fatalf("bad quoted header: %v", err)
	}
	if oh.Src != ha.ip || oh.Dst != hb.ip {
		t.Errorf("quoted flow %v -> %v", oh.Src, oh.Dst)
	}
	if got := r.Stats.TTLExpired.Value(); got != 1 {
		t.Errorf("TTLExpired = %d, want 1", got)
	}
}

func TestNoRouteEmitsUnreachable(t *testing.T) {
	s := sim.New(3)
	r, ha, _ := topo2(s)

	ha.sendIP(mac(0xa0), wire.IP(172, 16, 9, 9), 64, []byte("lost"))
	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(ha.got) != 1 {
		t.Fatalf("hostA received %d packets, want 1 ICMP error", len(ha.got))
	}
	ih, _, err := wire.UnmarshalICMP(ha.got[0].body)
	if err != nil {
		t.Fatal(err)
	}
	if ih.Type != wire.ICMPDestUnreachable || ih.Code != wire.ICMPCodeNetUnreachable {
		t.Errorf("ICMP type/code = %d/%d, want %d/%d", ih.Type, ih.Code, wire.ICMPDestUnreachable, wire.ICMPCodeNetUnreachable)
	}
	if got := r.Stats.NoRoute.Value(); got != 1 {
		t.Errorf("NoRoute = %d, want 1", got)
	}
}

func TestNoErrorAboutICMPError(t *testing.T) {
	s := sim.New(4)
	r, ha, _ := topo2(s)

	// An ICMP time-exceeded with an unroutable destination must be
	// dropped silently, not answered with unreachable.
	msg := wire.ICMPHeader{Type: wire.ICMPTimeExceeded}
	body := msg.Marshal(make([]byte, wire.IPv4HeaderLen+8))
	iph := wire.IPv4Header{
		TotalLen: uint16(wire.IPv4HeaderLen + len(body)),
		TTL:      64,
		Proto:    wire.ProtoICMP,
		Src:      ha.ip,
		Dst:      wire.IP(172, 16, 9, 9),
	}
	frame := make([]byte, wire.EthHeaderLen+int(iph.TotalLen))
	(&wire.EthHeader{Dst: mac(0xa0), Src: ha.mac, Type: wire.EtherTypeIPv4}).Marshal(frame)
	iph.Marshal(frame[wire.EthHeaderLen : wire.EthHeaderLen+wire.IPv4HeaderLen])
	copy(frame[wire.EthHeaderLen+wire.IPv4HeaderLen:], body)
	ha.nic.Transmit(frame)

	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(ha.got) != 0 {
		t.Fatalf("hostA received %d packets, want 0 (no error about an error)", len(ha.got))
	}
	if got := r.Stats.ICMPSent.Value(); got != 0 {
		t.Errorf("ICMPSent = %d, want 0", got)
	}
}

func TestPingRouterPort(t *testing.T) {
	s := sim.New(5)
	_, ha, _ := topo2(s)

	req := wire.ICMPHeader{Type: wire.ICMPEchoRequest, ID: 7, Seq: 1}
	body := req.Marshal([]byte("probe"))
	iph := wire.IPv4Header{
		TotalLen: uint16(wire.IPv4HeaderLen + len(body)),
		TTL:      64,
		Proto:    wire.ProtoICMP,
		Src:      ha.ip,
		Dst:      wire.IP(10, 1, 0, 254),
	}
	frame := make([]byte, wire.EthHeaderLen+int(iph.TotalLen))
	(&wire.EthHeader{Dst: mac(0xa0), Src: ha.mac, Type: wire.EtherTypeIPv4}).Marshal(frame)
	iph.Marshal(frame[wire.EthHeaderLen : wire.EthHeaderLen+wire.IPv4HeaderLen])
	copy(frame[wire.EthHeaderLen+wire.IPv4HeaderLen:], body)
	ha.nic.Transmit(frame)

	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(ha.got) != 1 {
		t.Fatalf("hostA received %d packets, want 1 echo reply", len(ha.got))
	}
	ih, payload, err := wire.UnmarshalICMP(ha.got[0].body)
	if err != nil {
		t.Fatal(err)
	}
	if ih.Type != wire.ICMPEchoReply || ih.ID != 7 || string(payload) != "probe" {
		t.Errorf("echo reply type=%d id=%d payload=%q", ih.Type, ih.ID, payload)
	}
}

// burst floods frames through the router faster than its egress link —
// deliberately slower than the ingress, as when a fast LAN funnels into
// a thin uplink — can drain, forcing the finite queue to drop.
func burst(t *testing.T, seed int64, frames int) (forwarded, red, tail uint64, maxQ int) {
	t.Helper()
	s := sim.New(seed)
	segA, segB := simnet.NewSegment(s), simnet.NewSegment(s)
	segB.SetBitRate(1_000_000) // 1 Mb/s uplink behind a 10 Mb/s LAN
	r := New(s, "core")
	// An 8-frame queue, a quarter of the default, so a short burst fills it.
	r.Attach(segA, "a", mac(0xa0), wire.IP(10, 1, 0, 254), 24).capacity = 8
	r.Attach(segB, "b", mac(0xb0), wire.IP(10, 2, 0, 254), 24).capacity = 8
	ha := newTestHost(segA, "ha", mac(0x01), wire.IP(10, 1, 0, 1))
	hb := newTestHost(segB, "hb", mac(0x02), wire.IP(10, 2, 0, 1))
	_ = hb

	// Resolve ARP with one packet, then flood back-to-back.
	ha.sendIP(mac(0xa0), hb.ip, 64, []byte("warm"))
	if err := s.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	for i := 0; i < frames; i++ {
		i := i
		s.After(time.Duration(i)*50*time.Microsecond, func() {
			ha.sendIP(mac(0xa0), hb.ip, 64, payload)
		})
	}
	if err := s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return r.Stats.Forwarded.Value(), r.Stats.REDDrops.Value(), r.Stats.TailDrops.Value(), r.Ports()[1].MaxQLen
}

func TestREDDropsUnderOverload(t *testing.T) {
	const frames = 200
	forwarded, red, tail, maxQ := burst(t, 42, frames)
	if red == 0 {
		t.Errorf("RED dropped nothing under a %d-frame burst", frames)
	}
	// Conservation: every offered frame (flood + warmup) was either
	// forwarded or dropped at the queue.
	if forwarded+red+tail != frames+1 {
		t.Errorf("forwarded %d + red %d + tail %d != offered %d", forwarded, red, tail, frames+1)
	}
	if maxQ > 8+1 { // +1: the frame serializing on the wire
		t.Errorf("queue reached %d frames, capacity 8", maxQ)
	}
	if forwarded < 10 {
		t.Errorf("only %d frames survived the burst", forwarded)
	}

	f2, r2, t2, q2 := burst(t, 42, frames)
	if f2 != forwarded || r2 != red || t2 != tail || q2 != maxQ {
		t.Errorf("burst not deterministic: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			forwarded, red, tail, maxQ, f2, r2, t2, q2)
	}
}

// TestBroadcastsAreNotForwarded: a packet received as a link-layer
// broadcast is never forwarded (RFC 1812 §5.3.4), and neither it nor a
// packet to the limited broadcast address earns an ICMP error
// (§4.3.2.7). Both are counted under broadcast_drops.
func TestBroadcastsAreNotForwarded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		dstMAC wire.MAC
		dst    func(hb *testHost) wire.IPAddr
	}{
		{"link broadcast", wire.BroadcastMAC, func(hb *testHost) wire.IPAddr { return hb.ip }},
		{"limited broadcast", mac(0xa0), func(*testHost) wire.IPAddr { return wire.IP(255, 255, 255, 255) }},
	} {
		s := sim.New(6)
		r, ha, hb := topo2(s)
		ha.sendIP(tc.dstMAC, tc.dst(hb), 64, []byte("everyone"))
		if err := s.RunFor(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if len(hb.got) != 0 || len(ha.got) != 0 {
			t.Errorf("%s: hostB got %d packets, hostA %d, want 0 and 0", tc.name, len(hb.got), len(ha.got))
		}
		st := &r.Stats
		if st.Broadcasts.Value() != 1 || st.Forwarded.Value() != 0 || st.NoRoute.Value() != 0 || st.ICMPSent.Value() != 0 {
			t.Errorf("%s: Broadcasts/Forwarded/NoRoute/ICMPSent = %d/%d/%d/%d, want 1/0/0/0", tc.name,
				st.Broadcasts.Value(), st.Forwarded.Value(), st.NoRoute.Value(), st.ICMPSent.Value())
		}
	}
}

// TestDuplicateForwardedTwice: both halves of a duplicated frame share
// one read-only buffer, so the router must forward each from its own
// copy — rewriting the shared buffer in place would send the second out
// with its TTL decremented twice.
func TestDuplicateForwardedTwice(t *testing.T) {
	s := sim.New(7)
	r, ha, hb := topo2(s)
	ha.seg.Faults().SetLinkRates("ha", fault.Rates{Dup: 1})
	ha.sendIP(mac(0xa0), hb.ip, 64, []byte("twice"))
	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(hb.got) != 2 {
		t.Fatalf("hostB received %d packets, want 2", len(hb.got))
	}
	for i, pkt := range hb.got {
		if pkt.h.TTL != 63 || string(pkt.body[wire.UDPHeaderLen:]) != "twice" {
			t.Errorf("copy %d: TTL %d payload %q, want 63 %q", i, pkt.h.TTL, pkt.body[wire.UDPHeaderLen:], "twice")
		}
	}
	if got := r.Stats.Forwarded.Value(); got != 2 {
		t.Errorf("Forwarded = %d, want 2", got)
	}
}

// TestForwardAllocs: an owned frame is forwarded in place, so a forward
// to a resolved next hop allocates nothing; a read-only one costs its
// copy and nothing more.
func TestForwardAllocs(t *testing.T) {
	s := sim.New(8)
	r, ha, hb := topo2(s)
	ha.sendIP(mac(0xa0), hb.ip, 64, []byte("warm")) // resolves hb
	if err := s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(hb.got) != 1 {
		t.Fatalf("warm-up packet not forwarded")
	}
	hb.nic.Rx = func(simnet.Frame) {}
	in := r.Ports()[0]
	tmpl := ha.ipFrame(mac(0xa0), hb.ip, 64, make([]byte, 512))
	buf := make([]byte, len(tmpl))
	for _, tc := range []struct {
		owned bool
		want  float64
	}{{true, 0}, {false, 1}} {
		got := testing.AllocsPerRun(100, func() {
			copy(buf, tmpl)
			r.rx(in, simnet.Frame{Data: buf, Owned: tc.owned})
			if err := s.RunFor(10 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("Owned=%v: a forward allocates %.2f objects, want %.0f", tc.owned, got, tc.want)
		}
	}
	if got := r.Stats.Forwarded.Value(); got != 1+2*101 {
		t.Errorf("Forwarded = %d, want %d (warm-up + two runs of 1+100)", got, 1+2*101)
	}
}

// TestExpiryOrderFree: the ARP sweep walks each port's table in map
// order, so an expiry must depend on nothing but the entry's own age.
// Three unresolved next hops, holding six frames, expire in one sweep
// while the resolved one stays; ten runs, each with fresh maps (and so
// fresh iteration orders), must count and keep the same.
func TestExpiryOrderFree(t *testing.T) {
	run := func() string {
		s := sim.New(9)
		r, ha, hb := topo2(s)
		ha.sendIP(mac(0xa0), hb.ip, 64, []byte("resolved"))
		for i, last := range []byte{7, 8, 9} {
			for range i + 1 {
				ha.sendIP(mac(0xa0), wire.IP(10, 2, 0, last), 64, []byte("nobody"))
			}
		}
		if err := s.RunFor(arpUnresolvedTTL*arpSweepInterval - arpSweepInterval/2); err != nil {
			t.Fatal(err)
		}
		before := r.Stats.ARPDrops.Value()
		if err := s.RunFor(arpSweepInterval); err != nil {
			t.Fatal(err)
		}
		if after := r.Stats.ARPDrops.Value(); before != 0 || after != 6 {
			t.Fatalf("ARP drops %d then %d across one sweep, want 0 then 6", before, after)
		}
		var kept [][]wire.IPAddr
		for _, p := range r.Ports() {
			var ips []wire.IPAddr
			for ip := range p.arp {
				ips = append(ips, ip)
			}
			slices.SortFunc(ips, func(a, b wire.IPAddr) int { return cmp.Compare(a.Uint32(), b.Uint32()) })
			kept = append(kept, ips)
		}
		return fmt.Sprint(r.Stats.Forwarded.Value(), kept)
	}
	want := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: forwarded and kept next hops %s, first run %s", i, got, want)
		}
	}
}
