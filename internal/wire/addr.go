// Package wire defines the on-the-wire formats used by the protocol
// stack: Ethernet framing, ARP, IPv4, UDP, and TCP headers, plus the
// Internet checksum — the codecs the protocol code marshals with — and
// the frame view (view.go), through which everything kernel-side reads
// and patches a received frame. Everything here is pure data encoding
// with no protocol logic; the state machines live in internal/stack.
package wire

import "fmt"

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// BroadcastMAC is the Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPAddr is an IPv4 address.
type IPAddr [4]byte

// Uint32 returns the address as a big-endian integer.
func (a IPAddr) Uint32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// IPFromUint32 builds an address from a big-endian integer.
func IPFromUint32(v uint32) IPAddr {
	return IPAddr{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// IP is shorthand for constructing an address from four octets.
func IP(a, b, c, d byte) IPAddr { return IPAddr{a, b, c, d} }

func (a IPAddr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IsZero reports whether the address is 0.0.0.0 (INADDR_ANY).
func (a IPAddr) IsZero() bool { return a == IPAddr{} }

// IsBroadcast reports whether the address is 255.255.255.255.
func (a IPAddr) IsBroadcast() bool { return a == IPAddr{255, 255, 255, 255} }

// Mask applies a prefix-length netmask to the address.
func (a IPAddr) Mask(prefixLen int) IPAddr {
	if prefixLen <= 0 {
		return IPAddr{}
	}
	if prefixLen >= 32 {
		return a
	}
	m := ^uint32(0) << (32 - prefixLen)
	return IPFromUint32(a.Uint32() & m)
}

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// ProtoName returns a short name for an IP protocol number.
func ProtoName(p uint8) string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	}
	return fmt.Sprintf("proto-%d", p)
}
