package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestChecksumKnownVector(t *testing.T) {
	// Classic RFC 1071 example: 0x0001, 0xf203, 0xf4f5, 0xf6f7.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumVerifiesToZero(t *testing.T) {
	b := []byte{0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0x00, 0x00, 10, 0, 0, 1, 10, 0, 0, 2}
	ck := Checksum(b)
	binary.BigEndian.PutUint16(b[10:12], ck)
	if Checksum(b) != 0 {
		t.Fatal("checksum over checksummed data not zero")
	}
}

// TestQuickChecksumSplitInvariance: accumulating a byte string in arbitrary
// chunkings must give the same sum as one shot.
func TestQuickChecksumSplitInvariance(t *testing.T) {
	f := func(data []byte, cuts []uint8) bool {
		want := Checksum(data)
		var c Checksummer
		rest := data
		for _, cut := range cuts {
			if len(rest) == 0 {
				break
			}
			n := int(cut) % (len(rest) + 1)
			c.Add(rest[:n])
			rest = rest[n:]
		}
		c.Add(rest)
		return c.Sum() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickChecksumErrorDetection(t *testing.T) {
	// Flipping any single byte of a checksummed message must be detected.
	f := func(data []byte, idx uint16, delta uint8) bool {
		if len(data) < 2 || delta == 0 {
			return true
		}
		if len(data)%2 != 0 {
			data = data[:len(data)-1]
		}
		ck := Checksum(data)
		msg := append(append([]byte{}, data...), byte(ck>>8), byte(ck))
		i := int(idx) % len(msg)
		msg[i] += delta
		// A change of 0xff in an odd/even pair can alias (one's complement
		// has two zero representations); accept detection OR the known
		// +/-0xffff alias.
		sum := Checksum(msg)
		if sum == 0 {
			// verify it really is the one's complement alias case
			msg[i] -= delta
			return Checksum(msg) == 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEthRoundTrip(t *testing.T) {
	h := EthHeader{Dst: MAC{1, 2, 3, 4, 5, 6}, Src: MAC{7, 8, 9, 10, 11, 12}, Type: EtherTypeIPv4}
	b := make([]byte, EthHeaderLen)
	h.Marshal(b)
	got, err := UnmarshalEth(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestEthShort(t *testing.T) {
	if _, err := UnmarshalEth(make([]byte, 13)); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestFrameWireSize(t *testing.T) {
	if FrameWireSize(1) != EthMinFrame {
		t.Fatalf("tiny frame = %d, want %d", FrameWireSize(1), EthMinFrame)
	}
	if FrameWireSize(1500) != EthMaxFrame {
		t.Fatalf("max frame = %d, want %d", FrameWireSize(1500), EthMaxFrame)
	}
	// 46-byte payload is the largest that still pads.
	if FrameWireSize(46) != EthMinFrame {
		t.Fatal("min-frame padding wrong")
	}
	if FrameWireSize(47) != 65 {
		t.Fatal("first unpadded size wrong")
	}
}

func TestARPRoundTrip(t *testing.T) {
	p := ARPPacket{
		Op:        ARPRequest,
		SenderMAC: MAC{1, 2, 3, 4, 5, 6},
		SenderIP:  IP(10, 0, 0, 1),
		TargetIP:  IP(10, 0, 0, 2),
	}
	got, err := UnmarshalARP(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip: %+v != %+v", got, p)
	}
}

func TestARPRejectsNonEthernet(t *testing.T) {
	b := (&ARPPacket{Op: ARPReply}).Marshal()
	b[0] = 0x13
	if _, err := UnmarshalARP(b); err == nil {
		t.Fatal("bad hardware type accepted")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4Header{
		TOS: 0, TotalLen: 84, ID: 0x1234, Flags: IPFlagDF, TTL: 64,
		Proto: ProtoTCP, Src: IP(10, 0, 0, 1), Dst: IP(10, 0, 0, 2),
	}
	b := make([]byte, IPv4HeaderLen)
	h.Marshal(b)
	got, hl, err := UnmarshalIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if hl != IPv4HeaderLen {
		t.Fatalf("hl = %d", hl)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.TotalLen != h.TotalLen ||
		got.ID != h.ID || got.Proto != h.Proto || !got.DontFragment() || got.IsFragment() {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestIPv4ChecksumRejected(t *testing.T) {
	h := IPv4Header{TotalLen: 20, TTL: 64, Proto: ProtoUDP, Src: IP(1, 1, 1, 1), Dst: IP(2, 2, 2, 2)}
	b := make([]byte, IPv4HeaderLen)
	h.Marshal(b)
	b[8] ^= 0xff // corrupt TTL
	if _, _, err := UnmarshalIPv4(b); err == nil {
		t.Fatal("corrupted header accepted")
	}
}

func TestIPv4Fragflags(t *testing.T) {
	h := IPv4Header{TotalLen: 20, TTL: 1, Proto: ProtoUDP, Flags: IPFlagMF, FragOff: 185}
	b := make([]byte, IPv4HeaderLen)
	h.Marshal(b)
	got, _, err := UnmarshalIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.MoreFragments() || got.FragOff != 185 || !got.IsFragment() {
		t.Fatalf("frag fields: %+v", got)
	}
}

func TestUDPRoundTripAndChecksum(t *testing.T) {
	payload := []byte("hello, world")
	h := UDPHeader{SrcPort: 1234, DstPort: 53, Length: uint16(UDPHeaderLen + len(payload))}
	b := make([]byte, UDPHeaderLen)
	h.Marshal(b)
	src, dst := IP(10, 0, 0, 1), IP(10, 0, 0, 2)
	h.Checksum = UDPChecksum(src, dst, b, payload)
	h.Marshal(b)
	seg := append(b, payload...)
	if !VerifyUDPChecksum(src, dst, seg) {
		t.Fatal("valid UDP checksum rejected")
	}
	seg[10] ^= 1
	if VerifyUDPChecksum(src, dst, seg) {
		t.Fatal("corrupted UDP payload accepted")
	}
	got, err := UnmarshalUDP(seg)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 1234 || got.DstPort != 53 || got.Length != h.Length {
		t.Fatalf("UDP fields: %+v", got)
	}
}

func TestUDPZeroChecksumMeansUncomputed(t *testing.T) {
	h := UDPHeader{SrcPort: 1, DstPort: 2, Length: UDPHeaderLen}
	b := make([]byte, UDPHeaderLen)
	h.Marshal(b)
	if !VerifyUDPChecksum(IP(1, 1, 1, 1), IP(2, 2, 2, 2), b) {
		t.Fatal("zero checksum must pass")
	}
}

func TestTCPRoundTripWithMSS(t *testing.T) {
	h := TCPHeader{
		SrcPort: 2000, DstPort: 80, Seq: 0xdeadbeef, Ack: 0xfeedface,
		Flags: TCPSyn | TCPAck, Window: 8760, Urgent: 7, MSS: 1460,
	}
	b := make([]byte, h.HeaderLen())
	h.Marshal(b)
	got, hl, err := UnmarshalTCP(b)
	if err != nil {
		t.Fatal(err)
	}
	if hl != 24 {
		t.Fatalf("hl = %d", hl)
	}
	got.Checksum = h.Checksum
	if got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestTCPChecksumOddPayload(t *testing.T) {
	payload := []byte("odd")
	h := TCPHeader{SrcPort: 1, DstPort: 2, Seq: 1, Ack: 2, Flags: TCPAck, Window: 100}
	b := make([]byte, h.HeaderLen())
	h.Marshal(b)
	src, dst := IP(10, 1, 0, 1), IP(10, 1, 0, 2)
	h.Checksum = TCPChecksum(src, dst, b, payload)
	h.Marshal(b)
	binary.BigEndian.PutUint16(b[16:18], h.Checksum)
	if !VerifyTCPChecksum(src, dst, append(b, payload...)) {
		t.Fatal("valid TCP checksum rejected")
	}
}

func TestQuickTCPHeaderRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win, urg, mss uint16) bool {
		h := TCPHeader{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: flags, Window: win, Urgent: urg, MSS: mss}
		b := make([]byte, h.HeaderLen())
		h.Marshal(b)
		got, _, err := UnmarshalTCP(b)
		if err != nil {
			return false
		}
		got.Checksum = h.Checksum
		return got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPMalformedOption(t *testing.T) {
	h := TCPHeader{MSS: 1460}
	b := make([]byte, h.HeaderLen())
	h.Marshal(b)
	b[21] = 9 // MSS option claims 9 bytes, only 4 remain
	if _, _, err := UnmarshalTCP(b); err == nil {
		t.Fatal("malformed option accepted")
	}
}

func TestICMPRoundTrip(t *testing.T) {
	h := ICMPHeader{Type: ICMPEchoRequest, ID: 77, Seq: 3}
	payload := []byte("ping data")
	msg := h.Marshal(payload)
	got, pl, err := UnmarshalICMP(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got != h || !bytes.Equal(pl, payload) {
		t.Fatalf("round trip: %+v %q", got, pl)
	}
	msg[9] ^= 0x40
	if _, _, err := UnmarshalICMP(msg); err == nil {
		t.Fatal("corrupted ICMP accepted")
	}
}

func TestIPAddrHelpers(t *testing.T) {
	a := IP(192, 168, 1, 200)
	if IPFromUint32(a.Uint32()) != a {
		t.Fatal("uint32 round trip")
	}
	if a.Mask(24) != IP(192, 168, 1, 0) {
		t.Fatalf("mask: %v", a.Mask(24))
	}
	if a.Mask(0) != IP(0, 0, 0, 0) || a.Mask(32) != a {
		t.Fatal("mask edges")
	}
	if a.String() != "192.168.1.200" {
		t.Fatalf("string: %s", a)
	}
	if !(IPAddr{}).IsZero() || !IP(255, 255, 255, 255).IsBroadcast() {
		t.Fatal("predicates")
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Fatalf("got %s", m)
	}
	if !BroadcastMAC.IsBroadcast() || m.IsBroadcast() {
		t.Fatal("broadcast predicate")
	}
}

func TestFlagString(t *testing.T) {
	if FlagString(TCPSyn|TCPAck) != "SYN|ACK" {
		t.Fatalf("got %s", FlagString(TCPSyn|TCPAck))
	}
	if FlagString(0) != "none" {
		t.Fatal("zero flags")
	}
}
