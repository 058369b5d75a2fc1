package wire

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// TCPHeaderLen is the length of a TCP header without options.
const TCPHeaderLen = 20

// TCP flag bits.
const (
	TCPFin = 0x01
	TCPSyn = 0x02
	TCPRst = 0x04
	TCPPsh = 0x08
	TCPAck = 0x10
	TCPUrg = 0x20
)

// TCP option kinds.
const (
	TCPOptEnd = 0
	TCPOptNop = 1
	TCPOptMSS = 2
)

// TCPHeader is a TCP segment header.
type TCPHeader struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8
	Window   uint16
	Checksum uint16
	Urgent   uint16
	MSS      uint16 // MSS option value; 0 means absent (only valid on SYN)
}

// HeaderLen returns the marshalled header length including options.
func (h *TCPHeader) HeaderLen() int {
	if h.MSS != 0 {
		return TCPHeaderLen + 4
	}
	return TCPHeaderLen
}

// Marshal writes the header (and MSS option, if set) into b, which must be
// at least HeaderLen bytes. The checksum field is written as given; use
// TCPChecksum to compute it.
func (h *TCPHeader) Marshal(b []byte) {
	hl := h.HeaderLen()
	binary.BigEndian.PutUint16(b[0:2], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], h.DstPort)
	binary.BigEndian.PutUint32(b[4:8], h.Seq)
	binary.BigEndian.PutUint32(b[8:12], h.Ack)
	b[12] = byte(hl/4) << 4
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:16], h.Window)
	binary.BigEndian.PutUint16(b[16:18], h.Checksum)
	binary.BigEndian.PutUint16(b[18:20], h.Urgent)
	if h.MSS != 0 {
		b[20] = TCPOptMSS
		b[21] = 4
		binary.BigEndian.PutUint16(b[22:24], h.MSS)
	}
}

// UnmarshalTCP parses a TCP header from b, returning the header and the
// header length (data offset).
func UnmarshalTCP(b []byte) (TCPHeader, int, error) {
	var h TCPHeader
	if len(b) < TCPHeaderLen {
		return h, 0, fmt.Errorf("wire: short TCP header (%d bytes)", len(b))
	}
	hl := int(b[12]>>4) * 4
	if hl < TCPHeaderLen || len(b) < hl {
		return h, 0, fmt.Errorf("wire: bad TCP data offset %d", hl)
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Seq = binary.BigEndian.Uint32(b[4:8])
	h.Ack = binary.BigEndian.Uint32(b[8:12])
	h.Flags = b[13]
	h.Window = binary.BigEndian.Uint16(b[14:16])
	h.Checksum = binary.BigEndian.Uint16(b[16:18])
	h.Urgent = binary.BigEndian.Uint16(b[18:20])
	var ok bool
	if h.MSS, ok = tcpOptions(b[TCPHeaderLen:hl]); !ok {
		return h, 0, fmt.Errorf("wire: malformed TCP option")
	}
	return h, hl, nil
}

// tcpOptions walks a TCP option block and returns the MSS option's value
// (0 when absent; the other kinds are skipped). ok is false when an
// option's length runs past the block.
func tcpOptions(opts []byte) (mss uint16, ok bool) {
	for len(opts) > 0 {
		switch opts[0] {
		case TCPOptEnd:
			return mss, true
		case TCPOptNop:
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				return 0, false
			}
			if opts[0] == TCPOptMSS && opts[1] == 4 {
				mss = binary.BigEndian.Uint16(opts[2:4])
			}
			opts = opts[opts[1]:]
		}
	}
	return mss, true
}

// TCPChecksum computes the TCP checksum over the pseudo-header, the
// marshalled header bytes hdr (checksum field zero), and payload slices.
func TCPChecksum(src, dst IPAddr, hdr []byte, payload ...[]byte) uint16 {
	var c Checksummer
	length := len(hdr)
	for _, p := range payload {
		length += len(p)
	}
	c.PseudoHeader(src, dst, ProtoTCP, uint16(length))
	c.Add(hdr)
	for _, p := range payload {
		c.Add(p)
	}
	return c.Sum()
}

// VerifyTCPChecksum checks a received TCP segment (header + payload).
func VerifyTCPChecksum(src, dst IPAddr, seg []byte) bool {
	if len(seg) < TCPHeaderLen {
		return false
	}
	var c Checksummer
	c.PseudoHeader(src, dst, ProtoTCP, uint16(len(seg)))
	c.Add(seg)
	return c.Sum() == 0
}

// FlagString renders TCP flags like "SYN|ACK" for diagnostics.
func FlagString(f uint8) string {
	var parts []string
	for _, fl := range []struct {
		bit  uint8
		name string
	}{{TCPFin, "FIN"}, {TCPSyn, "SYN"}, {TCPRst, "RST"}, {TCPPsh, "PSH"}, {TCPAck, "ACK"}, {TCPUrg, "URG"}} {
		if f&fl.bit != 0 {
			parts = append(parts, fl.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}
