package stack_test

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/wire"
)

// buildFrame assembles a full Ethernet+IPv4+transport frame addressed
// to the destination node, then lets mutate damage it after all
// checksums are computed — exactly what the wire-level fault injector
// does to a frame in flight.
func buildFrame(src, dst *node, proto uint8, transport []byte, mutate func([]byte)) []byte {
	frame := make([]byte, wire.EthHeaderLen+wire.IPv4HeaderLen+len(transport))
	eh := wire.EthHeader{Dst: dst.host.NIC.MAC(), Src: src.host.NIC.MAC(), Type: wire.EtherTypeIPv4}
	eh.Marshal(frame)
	ih := wire.IPv4Header{
		TotalLen: uint16(wire.IPv4HeaderLen + len(transport)),
		ID:       1,
		TTL:      wire.DefaultTTL,
		Proto:    proto,
		Src:      src.st.LocalIP(),
		Dst:      dst.st.LocalIP(),
	}
	ih.Marshal(frame[wire.EthHeaderLen:])
	copy(frame[wire.EthHeaderLen+wire.IPv4HeaderLen:], transport)
	if mutate != nil {
		mutate(frame)
	}
	return frame
}

func udpSegment(src, dst *node, sport, dport uint16, payload []byte) []byte {
	h := wire.UDPHeader{SrcPort: sport, DstPort: dport, Length: uint16(wire.UDPHeaderLen + len(payload))}
	hb := make([]byte, wire.UDPHeaderLen)
	h.Marshal(hb)
	h.Checksum = wire.UDPChecksum(src.st.LocalIP(), dst.st.LocalIP(), hb, payload)
	h.Marshal(hb)
	return append(hb, payload...)
}

func tcpSegment(src, dst *node, sport, dport uint16, payload []byte) []byte {
	h := wire.TCPHeader{SrcPort: sport, DstPort: dport, Seq: 1, Flags: wire.TCPAck, Window: 4096}
	seg := make([]byte, h.HeaderLen()+len(payload))
	h.Marshal(seg)
	copy(seg[h.HeaderLen():], payload)
	ck := wire.TCPChecksum(src.st.LocalIP(), dst.st.LocalIP(), seg[:h.HeaderLen()], payload)
	binary.BigEndian.PutUint16(seg[16:18], ck)
	return seg
}

// TestStackDiscardsCorruptedPackets drives damaged frames straight into
// a stack's input path and asserts each checksummed layer discards its
// own corruption and increments its own counter — and that nothing
// reaches the application.
func TestStackDiscardsCorruptedPackets(t *testing.T) {
	flipBit := func(off int, bit uint) func([]byte) {
		return func(frame []byte) { frame[off] ^= 1 << bit }
	}
	ethL, ipL := wire.EthHeaderLen, wire.IPv4HeaderLen

	cases := []struct {
		name    string
		proto   uint8
		seg     func(src, dst *node) []byte
		mutate  func([]byte)
		counter func(s *stack.Stats) uint64
	}{
		{
			name:  "ip-header-bit",
			proto: wire.ProtoUDP,
			seg:   func(a, b *node) []byte { return udpSegment(a, b, 9999, 5353, []byte("hello")) },
			// Flip a TTL bit: the IP header checksum must catch it.
			mutate:  flipBit(ethL+8, 3),
			counter: func(s *stack.Stats) uint64 { return s.IPChecksumErrors.Value() },
		},
		{
			name:  "udp-payload-bit",
			proto: wire.ProtoUDP,
			seg:   func(a, b *node) []byte { return udpSegment(a, b, 9999, 5353, []byte("hello")) },
			// Flip a payload bit: the UDP checksum must catch it.
			mutate:  flipBit(ethL+ipL+wire.UDPHeaderLen+2, 0),
			counter: func(s *stack.Stats) uint64 { return s.UDPChecksumErrors.Value() },
		},
		{
			name:  "udp-port-bit",
			proto: wire.ProtoUDP,
			seg:   func(a, b *node) []byte { return udpSegment(a, b, 9999, 5353, []byte("hello")) },
			// Flip a destination-port bit: header corruption, same discard.
			mutate:  flipBit(ethL+ipL+2, 1),
			counter: func(s *stack.Stats) uint64 { return s.UDPChecksumErrors.Value() },
		},
		{
			name:  "tcp-payload-bit",
			proto: wire.ProtoTCP,
			seg:   func(a, b *node) []byte { return tcpSegment(a, b, 9999, 5001, []byte("stream data")) },
			// Flip a payload bit: the TCP checksum must catch it.
			mutate:  flipBit(ethL+ipL+wire.TCPHeaderLen+4, 5),
			counter: func(s *stack.Stats) uint64 { return s.TCPChecksumErrors.Value() },
		},
		{
			name:  "tcp-seq-bit",
			proto: wire.ProtoTCP,
			seg:   func(a, b *node) []byte { return tcpSegment(a, b, 9999, 5001, []byte("stream data")) },
			// Flip a sequence-number bit: header corruption, same discard.
			mutate:  flipBit(ethL+ipL+5, 7),
			counter: func(s *stack.Stats) uint64 { return s.TCPChecksumErrors.Value() },
		},
		{
			name:  "icmp-type-bit",
			proto: wire.ProtoICMP,
			seg: func(a, b *node) []byte {
				h := wire.ICMPHeader{Type: wire.ICMPEchoRequest, ID: 1, Seq: 1}
				return h.Marshal([]byte("ping"))
			},
			mutate:  flipBit(ethL+ipL+0, 2),
			counter: func(s *stack.Stats) uint64 { return s.ICMPChecksumErrors.Value() },
		},
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(5)
			var delivered int

			// A UDP receiver that must never see the damaged datagrams.
			w.s.SpawnDaemon("victim", func(p *sim.Proc) {
				s := w.b.st.NewSocket(wire.ProtoUDP)
				w.b.st.Bind(s, stack.Addr{Port: 5353})
				buf := make([]byte, 256)
				for {
					n, _, _, err := w.b.st.Recv(p, s, buf, stack.RecvOpts{})
					if err != nil || n == 0 {
						return
					}
					delivered++
				}
			})

			w.s.Spawn("inject", func(p *sim.Proc) {
				p.Sleep(time.Millisecond)
				frame := buildFrame(w.a, w.b, c.proto, c.seg(w.a, w.b), c.mutate)
				w.b.st.Input(p, frame, false)
				// The same frame undamaged must parse cleanly, proving the
				// counter increment below is the mutation's doing.
				clean := buildFrame(w.a, w.b, c.proto, c.seg(w.a, w.b), nil)
				w.b.st.Input(p, clean, false)
			})
			if err := w.s.RunFor(50 * time.Millisecond); err != nil {
				t.Fatal(err)
			}

			st := &w.b.st.Stats
			if got := c.counter(st); got != 1 {
				t.Errorf("per-protocol checksum counter = %d, want 1 (stats %+v)", got, st)
			}
			if st.ChecksumErrors() != 1 {
				t.Errorf("aggregate ChecksumErrors = %d, want 1", st.ChecksumErrors())
			}
			if c.proto == wire.ProtoUDP && delivered != 1 {
				t.Errorf("UDP datagrams delivered = %d, want 1 (the clean one only)", delivered)
			}
		})
	}
}
