package wire

import (
	"encoding/binary"
	"fmt"
)

// Flow is one direction's 5-tuple as seen on the wire: the key of
// conntrack and of the LRO table. It is an identity, not a pattern —
// filter.MatchSpec is the pattern (wildcards), stack's socket key the
// oriented local/remote form.
type Flow struct {
	Src, Dst         IPAddr
	SrcPort, DstPort uint16
	Proto            uint8
}

// Reverse returns the flow of the opposite direction.
func (f Flow) Reverse() Flow {
	return Flow{Src: f.Dst, Dst: f.Src, SrcPort: f.DstPort, DstPort: f.SrcPort, Proto: f.Proto}
}

func (f Flow) String() string {
	return fmt.Sprintf("%s %v:%d->%v:%d", ProtoName(f.Proto), f.Src, f.SrcPort, f.Dst, f.DstPort)
}

// Less is a strict total order on flows (protocol, source, destination),
// used wherever flows are walked in a deterministic order.
func (f Flow) Less(g Flow) bool {
	switch {
	case f.Proto != g.Proto:
		return f.Proto < g.Proto
	case f.Src != g.Src:
		return f.Src.Uint32() < g.Src.Uint32()
	case f.SrcPort != g.SrcPort:
		return f.SrcPort < g.SrcPort
	case f.Dst != g.Dst:
		return f.Dst.Uint32() < g.Dst.Uint32()
	}
	return f.DstPort < g.DstPort
}

// View is the decoded layout of one Ethernet/IPv4 frame: where each
// header starts and the fields kernel-side code reads. It is a plain
// value holding offsets, never the frame, so it describes a copy of the
// frame as well as the original; the setters patch whichever is passed.
type View struct {
	IPAt, TPAt, PayAt, End int // IP header, transport header, payload, end of datagram (Ethernet padding excluded)

	Flow Flow   // ports are zero until Dissect has read the transport header
	Frag uint16 // flags and fragment-offset word
	ID   uint16
	TTL  uint8

	// TCP only.
	Flags    uint8
	Window   uint16
	Seq, Ack uint32
}

// IsFragment reports whether the datagram is one piece of a larger one.
func (v View) IsFragment() bool { return v.Frag&(IPFlagMF|IPOffMask) != 0 }

// IPProtoOf reads the protocol byte of a frame whose EtherType says
// IPv4, validating nothing else: what a driver knows of a frame before
// ip_input has looked at it, and all the cost model asks.
func IPProtoOf(frame []byte) (proto uint8, ok bool) {
	const at = EthHeaderLen + 9
	if len(frame) <= at || binary.BigEndian.Uint16(frame[12:14]) != EtherTypeIPv4 {
		return 0, false
	}
	return frame[at], true
}

// DissectIP is the first step: the Ethernet and IPv4 headers, fragments
// included. It accepts exactly what UnmarshalEth and UnmarshalIPv4 accept
// of a datagram that lies whole inside the frame — except that the header
// checksum is HeaderSumOK's to judge, because a forwarder that patches
// incrementally passes a bad one on for the end host to reject.
func DissectIP(frame []byte) (v View, ok bool) {
	ok = v.ip(frame)
	return v, ok
}

// ip fills v in place (the exported steps hand it their result, so the
// view is written once, where the caller reads it).
func (v *View) ip(frame []byte) bool {
	proto, ok := IPProtoOf(frame)
	if !ok || len(frame) < EthHeaderLen+IPv4HeaderLen {
		return false
	}
	ip := frame[EthHeaderLen:]
	ihl := int(ip[0]&0x0f) * 4
	total := int(binary.BigEndian.Uint16(ip[2:4]))
	if ip[0]>>4 != 4 || ihl < IPv4HeaderLen || total < ihl || total > len(ip) {
		return false
	}
	v.IPAt, v.TPAt, v.End = EthHeaderLen, EthHeaderLen+ihl, EthHeaderLen+total
	v.PayAt = v.TPAt
	v.ID = binary.BigEndian.Uint16(ip[4:6])
	v.Frag = binary.BigEndian.Uint16(ip[6:8])
	v.TTL = ip[8]
	v.Flow.Proto = proto
	copy(v.Flow.Src[:], ip[12:16])
	copy(v.Flow.Dst[:], ip[16:20])
	return true
}

// Dissect adds the second step, the transport header of an unfragmented
// TCP or UDP datagram. A transport header that does not fit inside the
// IP total length is not a transport frame, whatever the Ethernet padding
// behind it holds. Beyond that the accept set is UnmarshalTCP's and
// UnmarshalUDP's and must stay so: the offload column's stack skips its
// software checksum for every unfragmented segment, so a frame the stack
// accepts and this rejects would reach it unverified.
func Dissect(frame []byte) (v View, ok bool) {
	if !v.ip(frame) || v.IsFragment() {
		return v, false
	}
	seg := frame[v.TPAt:v.End]
	switch v.Flow.Proto {
	case ProtoTCP:
		if len(seg) < TCPHeaderLen {
			return v, false
		}
		hl := int(seg[12]>>4) * 4
		if hl < TCPHeaderLen || hl > len(seg) {
			return v, false
		}
		if hl > TCPHeaderLen {
			if _, ok := tcpOptions(seg[TCPHeaderLen:hl]); !ok {
				return v, false
			}
		}
		v.PayAt = v.TPAt + hl
		v.Seq = binary.BigEndian.Uint32(seg[4:8])
		v.Ack = binary.BigEndian.Uint32(seg[8:12])
		v.Flags = seg[13]
		v.Window = binary.BigEndian.Uint16(seg[14:16])
	case ProtoUDP:
		if len(seg) < UDPHeaderLen || binary.BigEndian.Uint16(seg[4:6]) < UDPHeaderLen {
			return v, false
		}
		v.PayAt = v.TPAt + UDPHeaderLen
	default:
		return v, false
	}
	v.Flow.SrcPort = binary.BigEndian.Uint16(seg[0:2])
	v.Flow.DstPort = binary.BigEndian.Uint16(seg[2:4])
	return v, true
}

// Ports reads the source and destination ports that open every TCP and
// UDP header. It is the one transport field a first fragment still
// carries, so it works on a DissectIP view too.
func (v View) Ports(frame []byte) (src, dst uint16, ok bool) {
	if v.End-v.TPAt < 4 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint16(frame[v.TPAt:]), binary.BigEndian.Uint16(frame[v.TPAt+2:]), true
}

// HeaderSumOK verifies the IP header checksum.
func (v View) HeaderSumOK(frame []byte) bool { return Checksum(frame[v.IPAt:v.TPAt]) == 0 }

// TransportSumOK verifies the TCP or UDP checksum of a Dissect view (a
// UDP checksum of zero, "none", passes).
func (v View) TransportSumOK(frame []byte) bool {
	if v.Flow.Proto == ProtoUDP {
		return VerifyUDPChecksum(v.Flow.Src, v.Flow.Dst, frame[v.TPAt:v.End])
	}
	return VerifyTCPChecksum(v.Flow.Src, v.Flow.Dst, frame[v.TPAt:v.End])
}

// The setters below patch a frame the view describes. The IP-header
// ones keep the header checksum right incrementally (RFC 1624), which
// equals a recomputation when it was right before and leaves a wrong one
// wrong.

// fixIP folds a change of the IP header bytes [at, at+len(old)) into the
// header checksum; old is their previous content.
func (v View) fixIP(frame []byte, at int, old []byte) {
	ck := frame[v.IPAt+10 : v.IPAt+12]
	binary.BigEndian.PutUint16(ck, ChecksumFixup(binary.BigEndian.Uint16(ck), old, frame[at:at+len(old)]))
}

// put16 stores a 16-bit IP header field and fixes the header checksum.
func (v View) put16(frame []byte, at int, val uint16) {
	old := [2]byte{frame[at], frame[at+1]}
	binary.BigEndian.PutUint16(frame[at:], val)
	v.fixIP(frame, at, old[:])
}

// SetTTL stores a new time-to-live.
func (v View) SetTTL(frame []byte, ttl uint8) {
	v.put16(frame, v.IPAt+8, uint16(ttl)<<8|uint16(v.Flow.Proto))
}

// SetID stores a new IP identification.
func (v View) SetID(frame []byte, id uint16) { v.put16(frame, v.IPAt+4, id) }

// SetTotalLen makes the datagram end n bytes after the IP header starts
// and returns the view of the result. The transport checksum covers the
// length: follow with SumTransport.
func (v View) SetTotalLen(frame []byte, n int) View {
	v.put16(frame, v.IPAt+2, uint16(n))
	v.End = v.IPAt + n
	return v
}

// SetFlow rewrites addresses and ports to f's (NAT), updating the IP
// and transport checksums incrementally — the payload is never
// re-summed. A UDP checksum of zero ("none") stays zero. v goes on
// describing the frame as it was dissected, not as rewritten.
func (v View) SetFlow(frame []byte, f Flow) {
	addrs := frame[v.IPAt+12 : v.IPAt+20]
	ports := frame[v.TPAt : v.TPAt+4]
	var oldAddrs [8]byte
	var oldPorts [4]byte
	copy(oldAddrs[:], addrs)
	copy(oldPorts[:], ports)
	copy(addrs[0:4], f.Src[:])
	copy(addrs[4:8], f.Dst[:])
	binary.BigEndian.PutUint16(ports[0:2], f.SrcPort)
	binary.BigEndian.PutUint16(ports[2:4], f.DstPort)
	v.fixIP(frame, v.IPAt+12, oldAddrs[:])

	udp := v.Flow.Proto == ProtoUDP
	ck := frame[v.sumAt() : v.sumAt()+2]
	sum := binary.BigEndian.Uint16(ck)
	if udp && sum == 0 {
		return
	}
	// The transport checksum covers the pseudo-header, so the address
	// rewrite feeds it too.
	sum = ChecksumFixup(sum, oldAddrs[:], addrs)
	sum = ChecksumFixup(sum, oldPorts[:], ports)
	if udp && sum == 0 {
		sum = 0xffff // RFC 768: computed zero is transmitted as all-ones
	}
	binary.BigEndian.PutUint16(ck, sum)
}

// sumAt is the offset of the transport checksum field in the frame.
func (v View) sumAt() int {
	if v.Flow.Proto == ProtoUDP {
		return v.TPAt + UDPChecksumOffset
	}
	return v.TPAt + TCPChecksumOffset
}

// The TCP field setters leave the checksum stale: a caller that also
// changes the payload (TSO, LRO) ends with one SumTransport.

func (v View) SetSeq(frame []byte, seq uint32)   { binary.BigEndian.PutUint32(frame[v.TPAt+4:], seq) }
func (v View) SetAck(frame []byte, ack uint32)   { binary.BigEndian.PutUint32(frame[v.TPAt+8:], ack) }
func (v View) SetTCPFlags(frame []byte, f uint8) { frame[v.TPAt+13] = f }
func (v View) SetWindow(frame []byte, w uint16)  { binary.BigEndian.PutUint16(frame[v.TPAt+14:], w) }

// SumTransport recomputes the TCP or UDP checksum over [TPAt, End).
func (v View) SumTransport(frame []byte) {
	seg := frame[v.TPAt:v.End]
	ck := frame[v.sumAt() : v.sumAt()+2]
	ck[0], ck[1] = 0, 0
	if v.Flow.Proto == ProtoUDP {
		binary.BigEndian.PutUint16(ck, UDPChecksum(v.Flow.Src, v.Flow.Dst, seg))
	} else {
		binary.BigEndian.PutUint16(ck, TCPChecksum(v.Flow.Src, v.Flow.Dst, seg))
	}
}
