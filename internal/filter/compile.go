package filter

import (
	"fmt"
	"slices"

	"repro/internal/wire"
)

// Frame offsets assumed by compiled session filters (Ethernet II, IPv4
// with no options — the compiled program verifies IHL=5 before trusting
// the transport offsets).
const (
	offEtherType = 12
	offIPVerIHL  = 14
	offIPFrag    = 20
	offIPProto   = 23
	offIPSrc     = 26
	offIPDst     = 30
	offSrcPort   = 34
	offDstPort   = 36
)

// field is one header word a compiled program tests: a big-endian load
// of size bytes at off, masked if mask is set, compared for equality.
// word and shift place the compared value in a prefixKey.
type field struct {
	off, size   int
	mask        uint32
	word, shift uint8
}

// gates open every compiled program: an IPv4 ethertype and a
// version/IHL byte of 0x45, so the fixed offsets below hold.
var gates = [...]struct {
	field
	want uint32
}{
	{field{off: offEtherType, size: 2}, wire.EtherTypeIPv4},
	{field{off: offIPVerIHL, size: 1}, 0x45},
}

// The fields a MatchSpec can constrain, in the one order Compile tests
// them. A zero spec field is no test at all; the fragment word is tested
// (for zero) iff a port is. The set index (index.go) is a trie on this
// order, which is why Compile and the index share the table.
const (
	fProto = iota
	fRemoteIP
	fLocalIP
	fFrag
	fRemotePort
	fLocalPort
	nFields
)

var fields = [nFields]field{
	fProto:      {off: offIPProto, size: 1, word: 1, shift: 9},
	fRemoteIP:   {off: offIPSrc, size: 4, word: 0, shift: 32},
	fLocalIP:    {off: offIPDst, size: 4, word: 0, shift: 0},
	fFrag:       {off: offIPFrag, size: 2, mask: wire.IPFlagMF | wire.IPOffMask, word: 1, shift: 17},
	fRemotePort: {off: offSrcPort, size: 2, word: 1, shift: 48},
	fLocalPort:  {off: offDstPort, size: 2, word: 1, shift: 32},
}

// maxCompiled is the longest program Compile emits: two gates and five
// plain tests of four instructions, the masked one of six, push and ret.
const maxCompiled = 4*(len(gates)+nFields-1) + 6 + 2

var loadOp = [...]Op{1: OpLoad8, 2: OpLoad16, 4: OpLoad32}

func (f field) end() int { return f.off + f.size }

// load reads the field from pkt the way the VM's load (and and) would;
// ok is false when the load runs past the end of the packet.
func (f field) load(pkt []byte) (v uint32, ok bool) {
	if f.end() > len(pkt) {
		return 0, false
	}
	for _, b := range pkt[f.off:f.end()] {
		v = v<<8 | uint32(b)
	}
	if f.mask != 0 {
		v &= f.mask
	}
	return v, true
}

// appendTest emits "load the field, mask it, assert it equals want".
func (f field) appendTest(p Program, want uint32) Program {
	p = append(p, Instr{loadOp[f.size], uint32(f.off)})
	if f.mask != 0 {
		p = append(p, Instr{OpPushLit, f.mask}, Instr{OpAnd, 0})
	}
	return append(p, Instr{OpPushLit, want}, Instr{OpEq, 0}, Instr{OpAssert, 0})
}

// MatchSpec describes the incoming packets a network session should
// receive. Zero-valued fields are wildcards. The spec is written from the
// session's point of view: Local* describe this host's endpoint (the
// packet's destination), Remote* describe the peer (the packet's source).
type MatchSpec struct {
	Proto      uint8 // IP protocol; 0 matches any
	LocalIP    wire.IPAddr
	LocalPort  uint16
	RemoteIP   wire.IPAddr
	RemotePort uint16
}

func (m MatchSpec) String() string {
	return fmt.Sprintf("%s %v:%d <- %v:%d", wire.ProtoName(m.Proto),
		m.LocalIP, m.LocalPort, m.RemoteIP, m.RemotePort)
}

// tuple is a MatchSpec laid out in test order: val[i] is what field i
// must equal, bit i of has says whether the program tests it, and reach
// is how far into a frame an accepting run of the program reads.
type tuple struct {
	val   [nFields]uint32
	has   uint8
	reach int
}

func (t tuple) tests(i int) bool { return t.has&(1<<i) != 0 }

func (m MatchSpec) tuple() tuple {
	t := tuple{val: [nFields]uint32{
		fProto:      uint32(m.Proto),
		fRemoteIP:   m.RemoteIP.Uint32(),
		fLocalIP:    m.LocalIP.Uint32(),
		fRemotePort: uint32(m.RemotePort),
		fLocalPort:  uint32(m.LocalPort),
	}, reach: gates[len(gates)-1].end()}
	for i, v := range t.val {
		if v != 0 {
			t.has |= 1 << i
			t.reach = max(t.reach, fields[i].end())
		}
	}
	if m.LocalPort != 0 || m.RemotePort != 0 {
		// A port-qualified filter rejects every fragment — including the
		// first, which does carry ports — so that a fragmented datagram
		// reaches the operating-system server whole; the server
		// reassembles it and re-injects an unfragmented packet that this
		// filter can claim (paper §3.1, exceptional packets).
		t.has |= 1 << fFrag
	}
	return t
}

// Compile translates a match specification into a filter program. The
// program accepts exactly the IPv4 frames matching the spec; frames with
// IP options are left to the fallback (operating-system server) filter,
// and non-first fragments never match a port-qualified spec (the server
// reassembles those and forwards them, since ports are only present in
// the first fragment).
func Compile(m MatchSpec) Program {
	return appendProgram(make(Program, 0, maxCompiled), m)
}

// appendProgram is the one emitter: Compile allocates its output, SpecOf
// emits into a stack buffer to compare.
func appendProgram(p Program, m MatchSpec) Program {
	for _, g := range gates {
		p = g.appendTest(p, g.want)
	}
	t := m.tuple()
	for i, f := range fields {
		if t.tests(i) {
			p = f.appendTest(p, t.val[i])
		}
	}
	return append(p, Instr{OpPushLit, 1}, Instr{OpRet, 0})
}

// SpecOf recognises a program Compile produced: it reads a candidate
// spec off the program's loads and accepts it only if compiling that
// spec gives the program back instruction for instruction. Anything
// else — the catch-all, a hand-written program, a compiled one that was
// edited — reports false. It does not allocate.
func SpecOf(p Program) (MatchSpec, bool) {
	if len(p) > maxCompiled {
		return MatchSpec{}, false
	}
	var m MatchSpec
	for i := 0; i+1 < len(p); i++ {
		v := p[i+1].Arg
		switch p[i] {
		case Instr{OpLoad8, offIPProto}:
			m.Proto = uint8(v)
		case Instr{OpLoad32, offIPSrc}:
			m.RemoteIP = wire.IPFromUint32(v)
		case Instr{OpLoad32, offIPDst}:
			m.LocalIP = wire.IPFromUint32(v)
		case Instr{OpLoad16, offSrcPort}:
			m.RemotePort = uint16(v)
		case Instr{OpLoad16, offDstPort}:
			m.LocalPort = uint16(v)
		}
	}
	var buf [maxCompiled]Instr
	if !slices.Equal(p, appendProgram(buf[:0], m)) {
		return MatchSpec{}, false
	}
	return m, true
}

// Matches is a direct (non-VM) evaluation of the spec against a frame:
// the tests' reference for what a compiled spec accepts. (The in-kernel
// and server baselines install kern.CatchAllProgram instead.)
func (m MatchSpec) Matches(frame []byte) bool {
	eh, err := wire.UnmarshalEth(frame)
	if err != nil || eh.Type != wire.EtherTypeIPv4 {
		return false
	}
	b := frame[wire.EthHeaderLen:]
	if len(b) < wire.IPv4HeaderLen || b[0] != 0x45 {
		return false
	}
	var src, dst wire.IPAddr
	copy(src[:], b[12:16])
	copy(dst[:], b[16:20])
	if m.Proto != 0 && b[9] != m.Proto {
		return false
	}
	if !m.RemoteIP.IsZero() && src != m.RemoteIP {
		return false
	}
	if !m.LocalIP.IsZero() && dst != m.LocalIP {
		return false
	}
	if m.LocalPort != 0 || m.RemotePort != 0 {
		if fragWord := uint16(b[6])<<8 | uint16(b[7]); fragWord&(wire.IPFlagMF|wire.IPOffMask) != 0 {
			return false
		}
		if len(b) < wire.IPv4HeaderLen+4 {
			return false
		}
		sp := uint16(b[20])<<8 | uint16(b[21])
		dp := uint16(b[22])<<8 | uint16(b[23])
		if m.RemotePort != 0 && sp != m.RemotePort {
			return false
		}
		if m.LocalPort != 0 && dp != m.LocalPort {
			return false
		}
	}
	return true
}
