package offload

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

var (
	testSrc = wire.IP(10, 0, 0, 1)
	testDst = wire.IP(10, 0, 0, 2)
)

// tcpFrame builds a complete, checksummed Ethernet+IPv4+TCP frame for
// one direction of the test flow.
func tcpFrame(seq, ack uint32, flags uint8, payload []byte) []byte {
	th := wire.TCPHeader{SrcPort: 1000, DstPort: 2000, Seq: seq, Ack: ack, Flags: flags, Window: 8192}
	hl := th.HeaderLen()
	b := make([]byte, wire.EthHeaderLen+wire.IPv4HeaderLen+hl+len(payload))
	eh := wire.EthHeader{Dst: wire.MAC{2}, Src: wire.MAC{1}, Type: wire.EtherTypeIPv4}
	eh.Marshal(b)
	ih := wire.IPv4Header{
		TotalLen: uint16(wire.IPv4HeaderLen + hl + len(payload)),
		ID:       uint16(seq >> 4),
		TTL:      wire.DefaultTTL,
		Proto:    wire.ProtoTCP,
		Src:      testSrc,
		Dst:      testDst,
	}
	ih.Marshal(b[wire.EthHeaderLen:])
	tp := b[wire.EthHeaderLen+wire.IPv4HeaderLen:]
	th.Marshal(tp)
	copy(tp[hl:], payload)
	ck := wire.TCPChecksum(testSrc, testDst, tp[:hl], tp[hl:])
	tp[wire.TCPChecksumOffset] = byte(ck >> 8)
	tp[wire.TCPChecksumOffset+1] = byte(ck)
	return b
}

// pattern fills n bytes with a position-dependent pattern offset by
// base, so merged payloads can be checked byte for byte.
func pattern(base, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(base + i)
	}
	return p
}

// delivery is one frame handed up by the engine, with its virtual time
// and ownership.
type delivery struct {
	at    sim.Time
	data  []byte
	owned bool
}

// rxEnv is a receive-side test harness: an engine whose Up callback
// records deliveries.
type rxEnv struct {
	s   *sim.Sim
	e   *Engine
	got []delivery
}

func newRxEnv(t *testing.T) *rxEnv {
	t.Helper()
	env := &rxEnv{s: sim.New(1)}
	env.e = New(Config{
		Sim:   env.s,
		Name:  "rx-test",
		Up:    func(f simnet.Frame) { env.got = append(env.got, delivery{env.s.Now(), f.Data, f.Owned}) },
		Costs: costs.DECLibrarySHMIPFOffload().Offload,
	})
	return env
}

// inject schedules a read-only frame into the engine at virtual time d.
func (env *rxEnv) inject(d time.Duration, frame []byte) {
	env.injectFrame(d, simnet.Frame{Data: frame})
}

func (env *rxEnv) injectFrame(d time.Duration, f simnet.Frame) {
	env.s.After(d, func() { env.e.Rx(f) })
}

func (env *rxEnv) run(t *testing.T) {
	t.Helper()
	if err := env.s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// codecFrame is a frame re-read with the wire codecs — independently of
// the view the engine parsed and patched it through.
type codecFrame struct {
	ip          wire.IPv4Header
	tcp         wire.TCPHeader
	tpAt, payAt int
}

func codecParse(frame []byte) (p codecFrame, ok bool) {
	eh, err := wire.UnmarshalEth(frame)
	if err != nil || eh.Type != wire.EtherTypeIPv4 {
		return p, false
	}
	ip, hlen, err := wire.UnmarshalIPv4(frame[wire.EthHeaderLen:])
	if err != nil || ip.IsFragment() || ip.Proto != wire.ProtoTCP || int(ip.TotalLen) > len(frame)-wire.EthHeaderLen {
		return p, false
	}
	p.ip, p.tpAt = ip, wire.EthHeaderLen+hlen
	th, thl, err := wire.UnmarshalTCP(frame[p.tpAt : wire.EthHeaderLen+int(ip.TotalLen)])
	if err != nil {
		return p, false
	}
	p.tcp, p.payAt = th, p.tpAt+thl
	return p, true
}

// parseDelivery re-parses a delivered frame.
func parseDelivery(t *testing.T, d delivery) (wire.IPv4Header, wire.TCPHeader, []byte) {
	t.Helper()
	p, ok := codecParse(d.data)
	if !ok {
		t.Fatalf("delivered frame does not parse")
	}
	if !wire.VerifyTCPChecksum(p.ip.Src, p.ip.Dst, d.data[p.tpAt:wire.EthHeaderLen+int(p.ip.TotalLen)]) {
		t.Fatalf("delivered frame fails TCP checksum verification")
	}
	return p.ip, p.tcp, d.data[p.payAt : wire.EthHeaderLen+int(p.ip.TotalLen)]
}

// TestLROPshIdleDeliversImmediately: a pushed request on an idle flow
// must not wait out the hold window — that is the moderation contract
// that keeps ping-pong latency intact.
func TestLROPshIdleDeliversImmediately(t *testing.T) {
	env := newRxEnv(t)
	pay := pattern(0, 300)
	env.inject(0, tcpFrame(5000, 77, wire.TCPAck|wire.TCPPsh, pay))
	env.run(t)

	if len(env.got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(env.got))
	}
	if env.got[0].at > sim.Time(0).Add(time.Millisecond) {
		t.Fatalf("pushed idle frame held until %v, want immediate (engine charges only)", env.got[0].at)
	}
	_, th, got := parseDelivery(t, env.got[0])
	if th.Flags&wire.TCPPsh == 0 {
		t.Fatalf("PSH flag lost in delivery")
	}
	if !bytes.Equal(got, pay) {
		t.Fatalf("payload mutated in delivery")
	}
	if n := env.e.PendingMerges(); n != 0 {
		t.Fatalf("pending merges = %d after flush, want 0", n)
	}
}

// TestLROMergesAndHoldFlushes: in-order segments without PSH coalesce
// into one super-segment that flushes once the flow goes quiet for the
// hold window, carrying the latest cumulative ACK and window.
func TestLROMergesAndHoldFlushes(t *testing.T) {
	env := newRxEnv(t)
	const n = 5
	gap := 200 * time.Microsecond
	var want []byte
	for i := 0; i < n; i++ {
		pay := pattern(i*7, 1000)
		want = append(want, pay...)
		env.inject(time.Duration(i)*gap, tcpFrame(uint32(9000+i*1000), uint32(100+i), wire.TCPAck, pay))
	}
	env.run(t)

	if len(env.got) != 1 {
		t.Fatalf("deliveries = %d, want 1 merged super-segment", len(env.got))
	}
	lastArrival := sim.Time(0).Add(time.Duration(n-1) * gap)
	at := env.got[0].at
	if at < lastArrival.Add(DefaultHold) {
		t.Fatalf("flush at %v, before hold window after last arrival (%v + %v)", at, lastArrival, DefaultHold)
	}
	if at > lastArrival.Add(2*DefaultHold) {
		t.Fatalf("flush at %v, far past the hold window", at)
	}
	_, th, got := parseDelivery(t, env.got[0])
	if th.Seq != 9000 {
		t.Fatalf("super-segment seq = %d, want 9000 (first frame)", th.Seq)
	}
	if th.Ack != uint32(100+n-1) {
		t.Fatalf("super-segment ack = %d, want latest %d", th.Ack, 100+n-1)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged payload differs: %d bytes vs %d wanted", len(got), len(want))
	}
	if v := env.e.Stats.LROMerged.Value(); v != n {
		t.Fatalf("lro_merged = %d, want %d", v, n)
	}
	if v := env.e.Stats.LROFlushes.Value(); v != 1 {
		t.Fatalf("lro_flushes = %d, want 1", v)
	}
}

// withIPOption returns the frame with a 4-byte NOP/EOL option block in
// its IP header (IHL 6), lengths and header checksum adjusted.
func withIPOption(frame []byte) []byte {
	const tpAt = wire.EthHeaderLen + wire.IPv4HeaderLen
	out := append(append(append([]byte(nil), frame[:tpAt]...), 1, 1, 1, 0), frame[tpAt:]...)
	ip := out[wire.EthHeaderLen : tpAt+4]
	ip[0] = 0x46
	total := len(out) - wire.EthHeaderLen
	ip[2], ip[3], ip[10], ip[11] = byte(total>>8), byte(total), 0, 0
	ck := wire.Checksum(ip)
	ip[10], ip[11] = byte(ck>>8), byte(ck)
	return out
}

// TestLROMergesThroughIPOptions: segments whose IP header carries
// options merge like any others, patched where their headers really end.
// The engine used to parse them at their true offsets and finalize the
// merge at the option-less ones: two good 100-byte segments went up as
// 258 bytes with an unparseable TCP header under a freshly valid
// checksum.
func TestLROMergesThroughIPOptions(t *testing.T) {
	env := newRxEnv(t)
	a, b := pattern(0, 100), pattern(100, 100)
	env.inject(0, withIPOption(tcpFrame(9000, 100, wire.TCPAck, a)))
	env.inject(200*time.Microsecond, withIPOption(tcpFrame(9100, 101, wire.TCPAck, b)))
	env.run(t)

	if len(env.got) != 1 {
		t.Fatalf("deliveries = %d, want 1 merged super-segment", len(env.got))
	}
	ih, th, got := parseDelivery(t, env.got[0])
	if want := wire.IPv4HeaderLen + 4 + wire.TCPHeaderLen + 200; int(ih.TotalLen) != want || len(env.got[0].data) != wire.EthHeaderLen+want {
		t.Fatalf("super-segment is %d bytes with TotalLen %d, want TotalLen %d", len(env.got[0].data), ih.TotalLen, want)
	}
	if th.Seq != 9000 || th.Ack != 101 {
		t.Fatalf("super-segment seq/ack = %d/%d, want 9000/101", th.Seq, th.Ack)
	}
	if !bytes.Equal(got, append(a, b...)) {
		t.Fatalf("merged payload differs: got %d bytes %x", len(got), got)
	}
}

// TestLROPshUnderLoadKeepsMerging: once the inter-arrival EWMA says the
// flow is busy, a PSH segment merges like any other byte (the
// moderation trade) and the PSH flag rides on the super-segment.
func TestLROPshUnderLoadKeepsMerging(t *testing.T) {
	env := newRxEnv(t)
	gap := 100 * time.Microsecond
	const n = 6
	for i := 0; i < n; i++ {
		flags := uint8(wire.TCPAck)
		if i == 3 {
			flags |= wire.TCPPsh // mid-stream push while busy: keeps merging
		}
		env.inject(time.Duration(i)*gap, tcpFrame(uint32(4000+i*500), 1, flags, pattern(i, 500)))
	}
	// Just after the pushed segment the merge must still be open.
	env.s.After(3*gap+10*time.Microsecond, func() {
		if n := env.e.PendingMerges(); n != 1 {
			t.Errorf("pending merges = %d right after busy PSH, want 1 (no immediate flush)", n)
		}
	})
	env.run(t)

	if len(env.got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(env.got))
	}
	_, th, got := parseDelivery(t, env.got[0])
	if th.Flags&wire.TCPPsh == 0 {
		t.Fatalf("super-segment lost the merged PSH flag")
	}
	if len(got) != n*500 {
		t.Fatalf("merged payload = %d bytes, want %d", len(got), n*500)
	}
}

// TestLROFinFlushesPending: a FIN is a stream boundary — it must flush
// the open merge first and then be delivered itself, promptly, in
// order.
func TestLROFinFlushesPending(t *testing.T) {
	env := newRxEnv(t)
	env.inject(0, tcpFrame(1000, 1, wire.TCPAck, pattern(0, 800)))
	env.inject(200*time.Microsecond, tcpFrame(1800, 1, wire.TCPAck, pattern(8, 800)))
	finAt := 400 * time.Microsecond
	env.inject(finAt, tcpFrame(2600, 1, wire.TCPAck|wire.TCPFin, nil))
	env.run(t)

	if len(env.got) != 2 {
		t.Fatalf("deliveries = %d, want 2 (merged data, then FIN)", len(env.got))
	}
	_, th0, got := parseDelivery(t, env.got[0])
	if th0.Seq != 1000 || len(got) != 1600 {
		t.Fatalf("first delivery seq=%d len=%d, want merged 1000/1600", th0.Seq, len(got))
	}
	_, th1, _ := parseDelivery(t, env.got[1])
	if th1.Flags&wire.TCPFin == 0 {
		t.Fatalf("second delivery is not the FIN")
	}
	if env.got[1].at > sim.Time(0).Add(finAt+time.Millisecond) {
		t.Fatalf("FIN held until %v, want prompt delivery", env.got[1].at)
	}
}

// TestLROSeqGapFlushes: an out-of-order arrival must flush the merge
// and go up immediately so the stack sees the gap and dup-ACKs without
// a moderation delay.
func TestLROSeqGapFlushes(t *testing.T) {
	env := newRxEnv(t)
	env.inject(0, tcpFrame(1000, 1, wire.TCPAck, pattern(0, 600)))
	env.inject(150*time.Microsecond, tcpFrame(1600, 1, wire.TCPAck, pattern(6, 600)))
	gapAt := 300 * time.Microsecond
	env.inject(gapAt, tcpFrame(9999, 1, wire.TCPAck, pattern(9, 600))) // hole before this
	env.run(t)

	if len(env.got) != 2 {
		t.Fatalf("deliveries = %d, want 2 (merged prefix, then the gap frame)", len(env.got))
	}
	_, th0, got0 := parseDelivery(t, env.got[0])
	if th0.Seq != 1000 || len(got0) != 1200 {
		t.Fatalf("first delivery seq=%d len=%d, want merged 1000/1200", th0.Seq, len(got0))
	}
	_, th1, _ := parseDelivery(t, env.got[1])
	if th1.Seq != 9999 {
		t.Fatalf("second delivery seq = %d, want the gap frame 9999", th1.Seq)
	}
	if env.got[1].at > sim.Time(0).Add(gapAt+time.Millisecond) {
		t.Fatalf("gap frame held until %v, want immediate delivery", env.got[1].at)
	}
}

// TestRxBadChecksumDropped: corruption must die at the engine with a
// counter, never reaching the host path.
func TestRxBadChecksumDropped(t *testing.T) {
	env := newRxEnv(t)
	f := tcpFrame(1000, 1, wire.TCPAck|wire.TCPPsh, pattern(0, 400))
	f[len(f)-1] ^= 0xff
	env.inject(0, f)
	env.run(t)

	if len(env.got) != 0 {
		t.Fatalf("corrupt frame delivered")
	}
	if v := env.e.Stats.RxCsumBad.Value(); v != 1 {
		t.Fatalf("rx_csum_bad = %d, want 1", v)
	}
}

// TestRxDeterminism: the same injection schedule must produce
// byte-identical deliveries at identical virtual times across runs —
// the property CI re-checks with -count=2.
func TestRxDeterminism(t *testing.T) {
	run := func() []delivery {
		env := newRxEnv(t)
		for i := 0; i < 12; i++ {
			flags := uint8(wire.TCPAck)
			if i%5 == 4 {
				flags |= wire.TCPPsh
			}
			env.inject(time.Duration(i)*130*time.Microsecond,
				tcpFrame(uint32(2000+i*700), uint32(i), flags, pattern(i, 700)))
		}
		env.run(t)
		return env.got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].at != b[i].at {
			t.Fatalf("delivery %d at %v vs %v", i, a[i].at, b[i].at)
		}
		if !bytes.Equal(a[i].data, b[i].data) {
			t.Fatalf("delivery %d bytes differ", i)
		}
	}
}

// TestTSOSlicing: a super-segment leaves the engine as MSS-sized wire
// frames with consecutive sequence numbers and IP IDs, a valid checksum
// each, FIN and PSH on its last slice only, and its payload intact. The
// burst hands the engine nine 8-MSS super-segments at one instant, 72
// slices at once: every one is sliced and sent by the engine, in
// sequence order.
func TestTSOSlicing(t *testing.T) {
	type super struct {
		flags uint8
		pay   int
	}
	for _, tc := range []struct {
		name   string
		supers []super
	}{
		{"one", []super{{wire.TCPAck | wire.TCPPsh | wire.TCPFin, 3*DefaultMSS + 500}}},
		{"burst", slices.Repeat([]super{{wire.TCPAck, DefaultTSOMax}}, 9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(3)
			seg := simnet.NewSegment(s)
			nicA := seg.AttachNamed("A", wire.MAC{1})
			nicB := seg.AttachNamed("B", wire.MAC{2})
			var got []simnet.Frame
			nicB.Rx = func(f simnet.Frame) { got = append(got, f) }
			nicA.Rx = func(f simnet.Frame) {}

			e := New(Config{
				Sim:   s,
				Name:  "tso-test",
				NIC:   nicA,
				Up:    func(f simnet.Frame) {},
				Costs: costs.DECLibrarySHMIPFOffload().Offload,
			})

			// want holds each expected slice's payload, sequence number,
			// IP ID and flags, in the order the wire must carry them.
			type slice struct {
				pay   []byte
				seq   uint32
				id    uint16
				flags uint8
			}
			var want []slice
			seq := uint32(70000)
			for i, sup := range tc.supers {
				payload := pattern(i, sup.pay)
				super := tcpFrame(seq, 42, sup.flags, payload)
				id := uint16(seq >> 4) // tcpFrame's IP ID
				for off := 0; off < len(payload); off += DefaultMSS {
					end := min(off+DefaultMSS, len(payload))
					flags := sup.flags
					if end < len(payload) {
						flags &^= wire.TCPFin | wire.TCPPsh
					}
					want = append(want, slice{payload[off:end], seq + uint32(off), id, flags})
					id++
				}
				seq += uint32(len(payload))
				s.After(0, func() {
					if err := e.Transmit(super); err != nil {
						t.Errorf("transmit: %v", err)
					}
				})
			}
			if err := s.Run(); err != nil {
				t.Fatalf("sim: %v", err)
			}

			if len(got) != len(want) {
				t.Fatalf("wire frames = %d, want %d", len(got), len(want))
			}
			for i, f := range got {
				p, ok := codecParse(f.Data)
				if !ok {
					t.Fatalf("slice %d does not parse", i)
				}
				seg := f.Data[p.tpAt : wire.EthHeaderLen+int(p.ip.TotalLen)]
				if !wire.VerifyTCPChecksum(p.ip.Src, p.ip.Dst, seg) {
					t.Fatalf("slice %d fails checksum verification", i)
				}
				w := want[i]
				if p.tcp.Seq != w.seq {
					t.Fatalf("slice %d seq = %d, want %d", i, p.tcp.Seq, w.seq)
				}
				if p.ip.ID != w.id {
					t.Fatalf("slice %d IP ID = %d, want %d", i, p.ip.ID, w.id)
				}
				if p.tcp.Flags != w.flags {
					t.Fatalf("slice %d flags = %#x, want %#x (FIN and PSH ride the last slice only)", i, p.tcp.Flags, w.flags)
				}
				if pay := f.Data[p.payAt : wire.EthHeaderLen+int(p.ip.TotalLen)]; !bytes.Equal(pay, w.pay) {
					t.Fatalf("slice %d payload = %d bytes, differs from the super-segment's %d", i, len(pay), len(w.pay))
				}
			}
			if v := e.Stats.TSOSuper.Value(); v != uint64(len(tc.supers)) {
				t.Fatalf("tso_super = %d, want %d", v, len(tc.supers))
			}
			if v := e.Stats.TSOSlices.Value(); v != uint64(len(want)) {
				t.Fatalf("tso_slices = %d, want %d", v, len(want))
			}
		})
	}
}

// TestTransmitChecksumsPlainFrame: an MTU-sized frame passes through
// unsliced but leaves with a freshly computed transport checksum (the
// stack skipped its software pass).
func TestTransmitChecksumsPlainFrame(t *testing.T) {
	s := sim.New(4)
	seg := simnet.NewSegment(s)
	nicA := seg.AttachNamed("A", wire.MAC{1})
	nicB := seg.AttachNamed("B", wire.MAC{2})
	var got []simnet.Frame
	nicB.Rx = func(f simnet.Frame) { got = append(got, f) }
	nicA.Rx = func(f simnet.Frame) {}
	e := New(Config{
		Sim:   s,
		Name:  "csum-test",
		NIC:   nicA,
		Up:    func(f simnet.Frame) {},
		Costs: costs.DECLibrarySHMIPFOffload().Offload,
	})

	f := tcpFrame(500, 9, wire.TCPAck, pattern(3, 256))
	// Zero the checksum the builder computed: the stack under offload
	// hands frames down unchecksummed.
	tp := f[wire.EthHeaderLen+wire.IPv4HeaderLen:]
	tp[wire.TCPChecksumOffset], tp[wire.TCPChecksumOffset+1] = 0, 0
	s.After(0, func() {
		if err := e.Transmit(f); err != nil {
			t.Errorf("transmit: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}

	if len(got) != 1 {
		t.Fatalf("wire frames = %d, want 1", len(got))
	}
	p, ok := codecParse(got[0].Data)
	if !ok {
		t.Fatalf("frame does not parse")
	}
	seg2 := got[0].Data[p.tpAt : wire.EthHeaderLen+int(p.ip.TotalLen)]
	if !wire.VerifyTCPChecksum(p.ip.Src, p.ip.Dst, seg2) {
		t.Fatalf("engine did not fill in the transport checksum")
	}
	if v := e.Stats.TxCsumFrames.Value(); v != 1 {
		t.Fatalf("tx_csum_frames = %d, want 1", v)
	}
}

// TestLROLoneFrameGoesUpAsItArrived: a merge that ends with the frame
// that opened it — pushed on an idle flow, or flushed alone by the hold
// timer — delivers that frame itself, trimmed of Ethernet padding. The
// bytes are what the old path produced by copying the frame and
// finalizing the copy, and the flush is counted the same way.
func TestLROLoneFrameGoesUpAsItArrived(t *testing.T) {
	for _, flags := range []uint8{wire.TCPAck | wire.TCPPsh, wire.TCPAck} {
		env := newRxEnv(t)
		wireLen := len(tcpFrame(5000, 77, flags, []byte{42}))
		frame := append(tcpFrame(5000, 77, flags, []byte{42}), make([]byte, 60-wireLen)...)
		env.inject(0, frame)
		env.run(t)

		if len(env.got) != 1 {
			t.Fatalf("flags %#x: deliveries = %d, want 1", flags, len(env.got))
		}
		old := &mergeBuf{
			buf:     append([]byte(nil), frame[:wireLen]...),
			lastAck: 77, lastWin: 8192, psh: flags&wire.TCPPsh != 0,
		}
		old.finalize()
		got := env.got[0].data
		if !bytes.Equal(got, old.buf) {
			t.Errorf("flags %#x: delivered frame differs from the copy-and-finalize path:\n got %x\nwant %x", flags, got, old.buf)
		}
		if &got[0] != &frame[0] {
			t.Errorf("flags %#x: lone frame was copied, want the wire frame itself", flags)
		}
		if f, b := env.e.Stats.LROFlushes.Value(), env.e.Stats.LROBytes.Value(); f != 1 || b != 1 {
			t.Errorf("flags %#x: LROFlushes/LROBytes = %d/%d, want 1/1", flags, f, b)
		}
	}
}

// TestLROLoneFrameAllocatesNoBuffer: a one-byte request on an idle flow
// must not cost a merge buffer (54 + 33 × 1460 bytes before the opening
// frame was aliased: 96 % of the bytes the rpc workload allocated), and
// once warm it allocates nothing at all: its merge record comes off the
// engine's free list, and its jobs off theirs.
func TestLROLoneFrameAllocatesNoBuffer(t *testing.T) {
	s := sim.New(1)
	ups := 0
	e := New(Config{Sim: s, Name: "rx-test", Up: func(simnet.Frame) { ups++ }, Costs: costs.DECLibrarySHMIPFOffload().Offload})
	frame := tcpFrame(5000, 77, wire.TCPAck|wire.TCPPsh, []byte{42})
	rx := func() { e.Rx(simnet.Frame{Data: frame}) }
	request := func() {
		s.After(10*time.Millisecond, rx)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	request() // warm the free lists
	if n := testing.AllocsPerRun(100, request); n != 0 {
		t.Errorf("a lone pushed segment allocates %.2f objects once warm, want 0", n)
	}
	if ups != 102 || e.Stats.LROFlushes.Value() != 102 {
		t.Errorf("%d deliveries and %d flushes, want 102 of each", ups, e.Stats.LROFlushes.Value())
	}
}

// TestReusedMergeOutlivesStaleHold: a merge record flushed before its
// hold timer fires goes back on the free list, and the next merge — of
// another flow — reuses it. The record's generation keeps counting
// across the reuse, so the old timer finds it changed and does nothing:
// the new merge goes up once, a full hold after it opened.
func TestReusedMergeOutlivesStaleHold(t *testing.T) {
	env := newRxEnv(t)
	other := tcpFrame(9000, 77, wire.TCPAck, pattern(3, 100))
	v, _ := wire.Dissect(other)
	flowB := v.Flow
	flowB.SrcPort++
	v.SetFlow(other, flowB)
	var first *mergeBuf
	var gen int
	env.inject(0, tcpFrame(5000, 77, wire.TCPAck, pattern(0, 100))) // opens a merge, arms its hold
	env.s.After(time.Microsecond, func() {
		for _, pend := range env.e.pending {
			first, gen = pend, pend.gen
		}
	})
	env.inject(10*time.Microsecond, tcpFrame(5100, 77, wire.TCPAck, nil)) // a pure ACK flushes it
	env.inject(20*time.Microsecond, other)                                // another flow opens a merge
	env.s.After(30*time.Microsecond, func() {
		if pend := env.e.pending[flowB]; pend != first || pend.gen == gen {
			t.Errorf("the second merge's record is the first's: %v; generation %d, the stale hold's %d: want reused, changed",
				pend == first, pend.gen, gen)
		}
	})
	env.run(t)
	if len(env.got) != 3 {
		t.Fatalf("%d deliveries, want 3 (the first merge, the ACK, the second merge)", len(env.got))
	}
	if at, opened := env.got[2].at, sim.Time(20*time.Microsecond); at < opened.Add(DefaultHold) {
		t.Errorf("the second merge went up at %v, before its hold (%v) ran out", at, opened.Add(DefaultHold))
	}
}

// TestRxOwnership: the engine passes ownership through. A frame
// delivered unmerged keeps its flag, a one-frame merge goes up with the
// flag of the frame that opened it, and a merged super-segment is the
// engine's private buffer, so it is Owned whatever its frames were.
func TestRxOwnership(t *testing.T) {
	for _, owned := range []bool{false, true} {
		cases := []struct {
			name   string
			frames [][]byte
			want   bool
		}{
			{"unmerged", [][]byte{tcpFrame(5000, 77, wire.TCPSyn, nil)}, owned},
			{"one-frame merge", [][]byte{tcpFrame(5000, 77, wire.TCPAck|wire.TCPPsh, pattern(0, 100))}, owned},
			{"merged", [][]byte{
				tcpFrame(5000, 77, wire.TCPAck, pattern(0, 1000)),
				tcpFrame(6000, 78, wire.TCPAck, pattern(1, 1000)),
			}, true},
		}
		for _, tc := range cases {
			env := newRxEnv(t)
			for i, fr := range tc.frames {
				env.injectFrame(time.Duration(i)*100*time.Microsecond, simnet.Frame{Data: fr, Owned: owned})
			}
			env.run(t)
			if len(env.got) != 1 {
				t.Fatalf("%s (Owned=%v): deliveries = %d, want 1", tc.name, owned, len(env.got))
			}
			if env.got[0].owned != tc.want {
				t.Errorf("%s (Owned=%v): delivered Owned = %v, want %v", tc.name, owned, env.got[0].owned, tc.want)
			}
		}
	}
}

// TestEngineHandsBackOnlyWhatItOwns: storage the engine owns goes back
// to mbuf's pools — each owned frame absorbed into a merge, and a
// super-segment once it is sliced — while a frame it was only lent is
// read and never handed back. Once a burst has drawn full-size frames
// from the pools and overwritten them, every frame the engine did not
// own still holds what it was sent with, and the storage it did own has
// been reused (or, under the race detector, poisoned on release).
func TestEngineHandsBackOnlyWhatItOwns(t *testing.T) {
	pooled := func(f []byte) []byte {
		p := mbuf.Frame(len(f))
		copy(p, f)
		return p
	}
	drawBurst := func(n int) {
		for range 64 {
			f := mbuf.Frame(n)
			for i := range f {
				f[i] = 0xee
			}
		}
	}
	for _, owned := range []bool{false, true} {
		env := newRxEnv(t)
		var in, sent [][]byte
		for i := range 3 {
			f := tcpFrame(5000+uint32(i)*1000, 77, wire.TCPAck, pattern(i, 1000))
			sent = append(sent, f)
			in = append(in, pooled(f))
			env.injectFrame(time.Duration(i)*100*time.Microsecond, simnet.Frame{Data: in[i], Owned: owned})
		}
		env.run(t)
		if len(env.got) != 1 || !env.got[0].owned {
			t.Fatalf("Owned=%v: %d deliveries, want one merged super-segment", owned, len(env.got))
		}
		drawBurst(len(in[0]))
		for i := range in {
			if intact := bytes.Equal(in[i], sent[i]); intact == owned {
				t.Errorf("Owned=%v: merged frame %d intact after the burst = %v", owned, i, intact)
			}
		}
	}

	s := sim.New(1)
	seg := simnet.NewSegment(s)
	nicA := seg.AttachNamed("A", wire.MAC{1})
	seg.AttachNamed("B", wire.MAC{2}).Rx = func(simnet.Frame) {}
	e := New(Config{Sim: s, Name: "tso", NIC: nicA, Up: func(simnet.Frame) {}, Costs: costs.DECLibrarySHMIPFOffload().Offload})
	sent := tcpFrame(70000, 42, wire.TCPAck, pattern(0, 3*DefaultMSS))
	super := pooled(sent)
	if err := e.Transmit(super); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	drawBurst(len(super))
	if bytes.Equal(super, sent) {
		t.Error("a sliced super-segment was not handed back")
	}
}
