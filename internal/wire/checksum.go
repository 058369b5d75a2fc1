package wire

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"repro/internal/mbuf"
)

// ErrChecksum marks a parse failure caused by a checksum mismatch, as
// opposed to a malformed header. Callers use errors.Is to count
// corruption discards separately from garbage.
var ErrChecksum = errors.New("checksum mismatch")

// Checksummer accumulates the Internet checksum (RFC 1071) over a sequence
// of byte slices, correctly handling odd-length slices in the middle of
// the sequence by tracking byte parity. The accumulator is 64-bit so
// words can be added without folding; since 2^16 ≡ 1 (mod 2^16 - 1),
// deferring the fold to Sum gives the same result.
//
// Add sums long slices as 8-byte little-endian words with an end-around
// carry, then folds that sum to 16 bits and byte-swaps it into the
// big-endian accumulator. RFC 1071 §2 is why this equals summing the
// big-endian 16-bit words: the one's-complement sum is byte-order
// independent and its carries may be deferred (2^64 ≡ 1 as well), and
// a byte swap multiplies by 2^8 mod 2^16 - 1, undoing the 2^8 the
// little-endian reading put on every word. The sum is zero only when
// every byte is, so the 0x0000/0xffff distinction Sum draws survives.
type Checksummer struct {
	sum uint64
	odd bool
}

// wideMin is the shortest slice Add hands to the 64-bit kernel. Below
// it a 32-bit word loop is faster, on the 20-byte IP and TCP headers
// among others (BenchmarkChecksum).
const wideMin = 24

// Add folds b into the checksum.
func (c *Checksummer) Add(b []byte) {
	if c.odd && len(b) > 0 {
		// The previous slice ended mid-word; this byte is the low half.
		c.sum += uint64(b[0])
		b = b[1:]
		c.odd = false
	}
	if len(b) >= wideMin {
		n := len(b) &^ 7
		c.sum += uint64(bits.ReverseBytes16(sumLE64(b[:n])))
		b = b[n:]
	}
	for len(b) >= 4 {
		c.sum += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		c.sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		c.sum += uint64(b[0]) << 8
		c.odd = true
	}
}

// sumLE64 returns the one's-complement sum of b's little-endian 16-bit
// words, folded to 16 bits; len(b) is a multiple of 8. It adds 8-byte
// words, 32 bytes per iteration, with the carry chained through and
// added back at the end.
func sumLE64(b []byte) uint16 {
	var s, carry uint64
	for len(b) >= 32 {
		s, carry = bits.Add64(s, binary.LittleEndian.Uint64(b), carry)
		s, carry = bits.Add64(s, binary.LittleEndian.Uint64(b[8:]), carry)
		s, carry = bits.Add64(s, binary.LittleEndian.Uint64(b[16:]), carry)
		s, carry = bits.Add64(s, binary.LittleEndian.Uint64(b[24:]), carry)
		b = b[32:]
	}
	for len(b) >= 8 {
		s, carry = bits.Add64(s, binary.LittleEndian.Uint64(b), carry)
		b = b[8:]
	}
	// Cannot overflow: s is all ones with a carry pending only if it
	// was before the last add, and it starts at zero.
	s += carry
	s = s>>32 + s&0xffffffff
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	return uint16(s)
}

// AddChain folds every segment of the chain into the checksum without
// flattening it — the integrated chain walk half of the classic
// copy/checksum fusion.
func (c *Checksummer) AddChain(ch *mbuf.Chain) {
	it := ch.Iter()
	for b, ok := it.Next(); ok; b, ok = it.Next() {
		c.Add(b)
	}
}

// CopyAndSum copies the chain's contents into dst while folding them into
// the checksum in the same pass (the paper's fused copy+checksum: one
// traversal, one cache walk). It returns the number of bytes copied,
// which is min(len(dst), ch.Len()).
func (c *Checksummer) CopyAndSum(dst []byte, ch *mbuf.Chain) int {
	total := 0
	it := ch.Iter()
	for b, ok := it.Next(); ok && total < len(dst); b, ok = it.Next() {
		n := copy(dst[total:], b)
		c.Add(dst[total : total+n])
		total += n
	}
	return total
}

// AddUint16 folds a 16-bit value into the checksum. It must only be called
// on a word boundary (even number of bytes added so far).
func (c *Checksummer) AddUint16(v uint16) {
	if c.odd {
		panic("wire: AddUint16 on odd byte boundary")
	}
	c.sum += uint64(v)
}

// Sum finishes the computation and returns the one's-complement checksum.
func (c *Checksummer) Sum() uint16 {
	s := c.sum
	for s>>16 != 0 {
		s = (s & 0xffff) + (s >> 16)
	}
	return ^uint16(s)
}

// Offsets of the transport checksum field within the TCP and UDP
// headers. The IP output path computes transport checksums during its
// fused copy into the link frame and patches them in at these offsets.
const (
	TCPChecksumOffset = 16
	UDPChecksumOffset = 6
)

// Checksum returns the Internet checksum of b.
func Checksum(b []byte) uint16 {
	var c Checksummer
	c.Add(b)
	return c.Sum()
}

// ChecksumChain returns the Internet checksum of the chain's contents.
func ChecksumChain(ch *mbuf.Chain) uint16 {
	var c Checksummer
	c.AddChain(ch)
	return c.Sum()
}

// ChecksumFixup incrementally updates a header checksum field after a
// range of covered bytes changed from old to new, per RFC 1624 eqn. 3:
//
//	HC' = ~(~HC + ~m + m')
//
// check is the current field value; old and new are the bytes before and
// after the rewrite (they may differ in length, but NAT rewrites use
// equal, even-length ranges). The update is exact — the result equals a
// full recomputation — so rewrites never have to re-sum payload; only
// the changed header bytes are visited. Fixups compose: rewriting two
// disjoint ranges is two successive calls.
func ChecksumFixup(check uint16, old, new []byte) uint16 {
	var co, cn Checksummer
	co.Add(old)
	cn.Add(new)
	// co.Sum() is ~m already; ^cn.Sum() undoes the complement to get m'.
	s := uint64(^check) + uint64(co.Sum()) + uint64(^cn.Sum())
	for s>>16 != 0 {
		s = (s & 0xffff) + (s >> 16)
	}
	return ^uint16(s)
}

// PseudoHeader folds the IPv4 pseudo-header used by TCP and UDP checksums
// into c: source address, destination address, protocol, and length of the
// transport segment.
func (c *Checksummer) PseudoHeader(src, dst IPAddr, proto uint8, length uint16) {
	c.Add(src[:])
	c.Add(dst[:])
	c.AddUint16(uint16(proto))
	c.AddUint16(length)
}
