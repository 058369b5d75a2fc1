package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
)

// testFrame assembles an Ethernet/IPv4 frame from codec structs, IP
// options and trailing Ethernet padding included, with every checksum
// right. tp is the marshalled transport header (checksum field zero).
func testFrame(ih IPv4Header, ipOpts, tp, payload []byte, pad int) []byte {
	ihl := IPv4HeaderLen + len(ipOpts)
	ih.TotalLen = uint16(ihl + len(tp) + len(payload))
	frame := make([]byte, EthHeaderLen+int(ih.TotalLen)+pad)
	eh := EthHeader{Dst: MAC{2, 0, 0, 0, 0, 2}, Src: MAC{2, 0, 0, 0, 0, 1}, Type: EtherTypeIPv4}
	eh.Marshal(frame)
	ip := frame[EthHeaderLen:]
	ih.Marshal(ip)
	copy(ip[IPv4HeaderLen:], ipOpts)
	ip[0] = 0x40 | byte(ihl/4)
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint16(ip[10:], Checksum(ip[:ihl]))
	seg := ip[ihl:ih.TotalLen]
	copy(seg, tp)
	copy(seg[len(tp):], payload)
	switch {
	case ih.Proto == ProtoTCP && len(seg) >= TCPHeaderLen:
		binary.BigEndian.PutUint16(seg[TCPChecksumOffset:], TCPChecksum(ih.Src, ih.Dst, seg))
	case ih.Proto == ProtoUDP && len(seg) >= UDPHeaderLen:
		binary.BigEndian.PutUint16(seg[UDPChecksumOffset:], UDPChecksum(ih.Src, ih.Dst, seg))
	}
	return frame
}

func tcpBytes(h TCPHeader) []byte {
	b := make([]byte, h.HeaderLen())
	h.Marshal(b)
	return b
}

func udpBytes(h UDPHeader) []byte {
	b := make([]byte, UDPHeaderLen)
	h.Marshal(b)
	return b
}

// codecDissect is the oracle: the frame read by the codec chain
// UnmarshalEth -> UnmarshalIPv4 (its checksum test set aside, as DissectIP
// sets it aside) -> UnmarshalTCP/UDP. depth is 0 for a frame the IP step
// refuses, 1 when only the transport step does, 2 for a transport frame.
func codecDissect(frame []byte) (v View, depth int) {
	eh, err := UnmarshalEth(frame)
	if err != nil || eh.Type != EtherTypeIPv4 {
		return v, 0
	}
	ip := append([]byte(nil), frame[EthHeaderLen:]...)
	if len(ip) >= IPv4HeaderLen {
		if ihl := int(ip[0]&0x0f) * 4; ihl >= IPv4HeaderLen && ihl <= len(ip) {
			ip[10], ip[11] = 0, 0
			binary.BigEndian.PutUint16(ip[10:], Checksum(ip[:ihl]))
		}
	}
	h, ihl, err := UnmarshalIPv4(ip)
	if err != nil || int(h.TotalLen) > len(ip) {
		return v, 0
	}
	v = View{IPAt: EthHeaderLen, TPAt: EthHeaderLen + ihl, PayAt: EthHeaderLen + ihl, End: EthHeaderLen + int(h.TotalLen),
		Flow: Flow{Src: h.Src, Dst: h.Dst, Proto: h.Proto}, Frag: h.Flags | h.FragOff, ID: h.ID, TTL: h.TTL}
	if h.IsFragment() {
		return v, 1
	}
	seg := ip[ihl:h.TotalLen]
	switch h.Proto {
	case ProtoTCP:
		th, thl, err := UnmarshalTCP(seg)
		if err != nil {
			return v, 1
		}
		v.PayAt += thl
		v.Flow.SrcPort, v.Flow.DstPort = th.SrcPort, th.DstPort
		v.Seq, v.Ack, v.Flags, v.Window = th.Seq, th.Ack, th.Flags, th.Window
	case ProtoUDP:
		uh, err := UnmarshalUDP(seg)
		if err != nil {
			return v, 1
		}
		v.PayAt += UDPHeaderLen
		v.Flow.SrcPort, v.Flow.DstPort = uh.SrcPort, uh.DstPort
	default:
		return v, 1
	}
	return v, 2
}

// FuzzDissect holds the one frame parser to its contract: it never
// panics, its offsets are ordered and inside the frame, and it accepts
// exactly what the codec chain accepts — no more (a NAT or LRO patch on a
// frame the stack would not parse) and, above all, no less: on the
// offload column the stack skips its software checksum for every
// unfragmented segment, so a frame the stack accepts and Dissect refuses
// would go up unverified. The seeds are the per-codec corpora composed
// into frames, plus the two shapes the hand parsers got wrong.
func FuzzDissect(f *testing.F) {
	ih := IPv4Header{ID: 7, Flags: IPFlagDF, TTL: DefaultTTL, Proto: ProtoTCP,
		Src: IPAddr{10, 0, 0, 1}, Dst: IPAddr{10, 0, 0, 2}}
	th := TCPHeader{SrcPort: 1024, DstPort: 80, Seq: 1, Ack: 2, Flags: TCPAck, Window: 16384}
	syn := th
	syn.Flags, syn.MSS = TCPSyn|TCPAck, 1460
	nops := append(tcpBytes(th), TCPOptNop, TCPOptNop, TCPOptNop, TCPOptEnd)
	nops[12] = 6 << 4
	truncOpt := append(tcpBytes(th), TCPOptMSS, 9, 0, 0) // an option claiming 9 bytes of a 4-byte block
	truncOpt[12] = 6 << 4
	uh := ih
	uh.Proto = ProtoUDP
	frag := ih
	frag.Flags, frag.FragOff = IPFlagMF, 0
	plain := testFrame(ih, nil, tcpBytes(th), []byte("payload"), 0)
	badSum := append([]byte(nil), plain...)
	badSum[EthHeaderLen+10] ^= 0xff
	for _, seed := range [][]byte{
		plain,
		testFrame(ih, nil, tcpBytes(syn), nil, 6),
		testFrame(ih, nil, nops, []byte{1}, 0),
		testFrame(ih, nil, truncOpt, nil, 0),
		testFrame(ih, []byte{1, 1, 1, 0}, tcpBytes(th), make([]byte, 100), 0), // IP option: LRO patched these at the wrong offset
		testFrame(uh, nil, udpBytes(UDPHeader{SrcPort: 53, DstPort: 1024, Length: 12}), []byte("data"), 0),
		testFrame(uh, nil, udpBytes(UDPHeader{Length: 7}), nil, 0),
		testFrame(uh, nil, []byte{0, 53, 4, 0}, nil, 22), // TotalLen 24 in a padded 60-byte frame: NAT wrote into the padding
		testFrame(frag, nil, tcpBytes(th), make([]byte, 16), 0),
		badSum,
		plain[:EthHeaderLen+9],
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		want, depth := codecDissect(frame)
		ipv, ipOK := DissectIP(frame)
		v, ok := Dissect(frame)
		if ipOK != (depth >= 1) || ok != (depth == 2) {
			t.Fatalf("DissectIP/Dissect accept %v/%v, codec chain depth %d: %x", ipOK, ok, depth, frame)
		}
		if proto, pok := IPProtoOf(frame); ipOK && (!pok || proto != ipv.Flow.Proto) {
			t.Fatalf("IPProtoOf = %d/%v on a frame DissectIP reads as proto %d", proto, pok, ipv.Flow.Proto)
		}
		if !ipOK {
			return
		}
		if !ok {
			v = ipv
		} else if ipv.IPAt != v.IPAt || ipv.TPAt != v.TPAt || ipv.End != v.End {
			t.Fatalf("the two steps disagree: %+v then %+v", ipv, v)
		}
		if !(EthHeaderLen <= v.IPAt && v.IPAt < v.TPAt && v.TPAt <= v.PayAt && v.PayAt <= v.End && v.End <= len(frame)) {
			t.Fatalf("offsets out of order: %+v in a %d-byte frame", v, len(frame))
		}
		if v != want {
			t.Fatalf("view %+v, codecs read %+v", v, want)
		}
		if v.HeaderSumOK(frame) != (Checksum(frame[v.IPAt:v.TPAt]) == 0) {
			t.Fatalf("HeaderSumOK disagrees with Checksum")
		}
		if sp, dp, pok := ipv.Ports(frame); ok && (!pok || sp != v.Flow.SrcPort || dp != v.Flow.DstPort) {
			t.Fatalf("Ports on the IP-step view = %d,%d,%v, want the flow's %d,%d", sp, dp, pok, v.Flow.SrcPort, v.Flow.DstPort)
		}
		if !ok {
			return
		}
		// Every setter, on a private copy with its checksums made right
		// first: both must still be right afterwards, nothing outside
		// [IPAt, End) may move, and the result must dissect to what was set.
		out := append([]byte(nil), frame...)
		v.SumTransport(out)
		out[v.IPAt+10], out[v.IPAt+11] = 0, 0
		binary.BigEndian.PutUint16(out[v.IPAt+10:], Checksum(out[v.IPAt:v.TPAt]))
		before := append([]byte(nil), out...)
		nf := Flow{Src: IPAddr{192, 0, 2, 1}, Dst: IPAddr{198, 51, 100, 7}, SrcPort: 61000, DstPort: 8080, Proto: v.Flow.Proto}
		v.SetTTL(out, v.TTL-1)
		v.SetID(out, v.ID+1)
		v.SetFlow(out, nf)
		got, gok := Dissect(out)
		if !gok || got.Flow != nf || got.TTL != v.TTL-1 || got.ID != v.ID+1 {
			t.Fatalf("after the setters the frame dissects to %+v (ok %v)", got, gok)
		}
		if !bytes.Equal(out[:v.IPAt], before[:v.IPAt]) || !bytes.Equal(out[v.PayAt:], before[v.PayAt:]) {
			t.Fatalf("a setter wrote outside the headers")
		}
		if !got.HeaderSumOK(out) || !got.TransportSumOK(out) {
			t.Fatalf("a checksum went wrong under the setters: %x", out)
		}
	})
}

// TestViewSettersMatchMarshal patches random frames through the view and
// builds the same result from scratch with the codecs: the bytes must be
// equal, incrementally fixed checksums included.
func TestViewSettersMatchMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1624))
	randIP := func() IPAddr { return IPFromUint32(rng.Uint32()) }
	for trial := 0; trial < 5000; trial++ {
		ih := IPv4Header{TOS: uint8(rng.Intn(256)), ID: uint16(rng.Uint32()), TTL: uint8(2 + rng.Intn(254)),
			Proto: ProtoTCP, Src: randIP(), Dst: randIP()}
		th := TCPHeader{SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Seq: rng.Uint32(), Ack: rng.Uint32(),
			Flags: TCPAck | TCPPsh, Window: uint16(rng.Uint32())}
		uh := UDPHeader{SrcPort: th.SrcPort, DstPort: th.DstPort}
		var ipOpts []byte
		if trial%3 == 0 {
			ipOpts = []byte{1, 1, 1, 0}
		}
		payload := make([]byte, 1+rng.Intn(300))
		rng.Read(payload)
		udp := trial%2 == 1
		build := func(n int) []byte {
			if udp {
				ih.Proto, uh.Length = ProtoUDP, uint16(UDPHeaderLen+n)
				return testFrame(ih, ipOpts, udpBytes(uh), payload[:n], 0)
			}
			return testFrame(ih, ipOpts, tcpBytes(th), payload[:n], 0)
		}
		frame := build(len(payload))
		v, ok := Dissect(frame)
		if !ok {
			t.Fatalf("trial %d: built frame does not dissect", trial)
		}

		// NAT and forwarding: incremental on both checksums.
		nf := Flow{Src: randIP(), Dst: randIP(), SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: v.Flow.Proto}
		v.SetTTL(frame, v.TTL-1)
		v.SetID(frame, v.ID+9)
		v.SetFlow(frame, nf)
		ih.TTL, ih.ID, ih.Src, ih.Dst = ih.TTL-1, ih.ID+9, nf.Src, nf.Dst
		th.SrcPort, th.DstPort, uh.SrcPort, uh.DstPort = nf.SrcPort, nf.DstPort, nf.SrcPort, nf.DstPort
		if want := build(len(payload)); !bytes.Equal(frame, want) {
			t.Fatalf("trial %d (udp %v): NAT through the view\n got %x\nwant %x", trial, udp, frame, want)
		}
		if udp {
			continue
		}

		// Segmentation: a shorter datagram with new TCP fields, summed afresh.
		v, _ = Dissect(frame)
		n := rng.Intn(len(payload))
		sv := v.SetTotalLen(frame, v.PayAt-v.IPAt+n)
		th.Seq, th.Ack, th.Window, th.Flags = rng.Uint32(), rng.Uint32(), uint16(rng.Uint32()), TCPAck
		sv.SetSeq(frame, th.Seq)
		sv.SetAck(frame, th.Ack)
		sv.SetWindow(frame, th.Window)
		sv.SetTCPFlags(frame, th.Flags)
		sv.SumTransport(frame)
		if want := build(n); sv.End != len(want) || !bytes.Equal(frame[:sv.End], want) {
			t.Fatalf("trial %d: slice through the view\n got %x\nwant %x", trial, frame[:sv.End], want)
		}
	}
}

// tupleLess is the order dataplane's conntrack tuple had before Flow
// replaced it. GC, snapshots and psdstat walk flows in it, so the goldens
// depend on Flow.Less reproducing it exactly.
func tupleLess(t, u Flow) bool {
	if t.Proto != u.Proto {
		return t.Proto < u.Proto
	}
	for i := 0; i < 4; i++ {
		if t.Src[i] != u.Src[i] {
			return t.Src[i] < u.Src[i]
		}
	}
	if t.SrcPort != u.SrcPort {
		return t.SrcPort < u.SrcPort
	}
	for i := 0; i < 4; i++ {
		if t.Dst[i] != u.Dst[i] {
			return t.Dst[i] < u.Dst[i]
		}
	}
	return t.DstPort < u.DstPort
}

func TestFlowOrderAndReverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Few distinct values per field, so ties on every prefix of the
	// comparison occur.
	pick := func() Flow {
		return Flow{Src: IPAddr{10, 0, byte(rng.Intn(2)), byte(rng.Intn(3))}, Dst: IPAddr{10, byte(rng.Intn(2)), 0, byte(rng.Intn(3))},
			SrcPort: uint16(rng.Intn(3)) << 7, DstPort: uint16(rng.Intn(3)) << 7, Proto: []uint8{ProtoTCP, ProtoUDP}[rng.Intn(2)]}
	}
	flows := make([]Flow, 400)
	for i := range flows {
		flows[i] = pick()
	}
	for _, a := range flows {
		if a.Reverse().Reverse() != a {
			t.Fatalf("Reverse is not an involution on %v", a)
		}
		if r := a.Reverse(); r.Src != a.Dst || r.SrcPort != a.DstPort || r.Dst != a.Src || r.DstPort != a.SrcPort || r.Proto != a.Proto {
			t.Fatalf("Reverse(%v) = %v", a, r)
		}
		for _, b := range flows {
			if a.Less(b) != tupleLess(a, b) {
				t.Fatalf("Less(%v, %v) = %v, the conntrack order says %v", a, b, a.Less(b), !a.Less(b))
			}
			// Strict and total: exactly one of a<b, b<a, a==b.
			if n := b2i(a.Less(b)) + b2i(b.Less(a)) + b2i(a == b); n != 1 {
				t.Fatalf("trichotomy broken on %v, %v", a, b)
			}
		}
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].Less(flows[j]) })
	for i := 1; i < len(flows); i++ {
		if flows[i].Less(flows[i-1]) {
			t.Fatalf("sorted by Less, yet %v precedes %v (not transitive)", flows[i-1], flows[i])
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

var sinkView View

func BenchmarkDissect(b *testing.B) {
	ih := IPv4Header{TTL: DefaultTTL, Proto: ProtoTCP, Src: IPAddr{10, 0, 0, 1}, Dst: IPAddr{10, 0, 0, 2}}
	frame := testFrame(ih, nil, tcpBytes(TCPHeader{SrcPort: 1024, DstPort: 5001, Seq: 1, Ack: 1, Flags: TCPAck, Window: 8192}), make([]byte, 1460), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkView, _ = Dissect(frame)
	}
}
