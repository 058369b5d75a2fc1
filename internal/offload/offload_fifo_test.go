package offload

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// fifoCosts is a cost model built to jam the engine: the per-frame
// checksum charge is enormous, so pipeline completions stay queued and
// a tiny FIFO fills after a couple of frames.
func fifoCosts(txFIFO, rxFIFO int) costs.OffloadCosts {
	return costs.OffloadCosts{
		Enabled:      true,
		TxSetup:      costs.FlatUS(5),
		TxSegment:    costs.FlatUS(5),
		Checksum:     costs.FlatUS(10_000), // 10 ms per frame: the pipeline backs up instantly
		RxMerge:      costs.FlatUS(1),
		RxFlush:      costs.FlatUS(1),
		TxFIFOFrames: txFIFO,
		RxFIFOFrames: rxFIFO,
		SwChecksum:   costs.Lin{FixedNS: 2_000, PerByteNS: 360},
	}
}

// TestRxFIFOOverflowFallsBackToSoftware: once the receive FIFO is full,
// further frames must not be dropped — they are verified on the host
// (charged through the SW hook) and still delivered, in order.
func TestRxFIFOOverflowFallsBackToSoftware(t *testing.T) {
	env := &rxEnv{s: sim.New(1)}
	var swCalls []time.Duration
	env.e = New(Config{
		Sim:  env.s,
		Name: "rx-fifo-test",
		Up:   func(f simnet.Frame) { env.got = append(env.got, delivery{at: env.s.Now(), data: f.Data}) },
		SW: func(d time.Duration, then func()) {
			swCalls = append(swCalls, d)
			then()
		},
		Costs: fifoCosts(0, 2),
	})

	// Six pure ACKs (non-mergeable, so each goes straight into the
	// delivery FIFO) arriving far faster than the 10 ms/frame pipeline
	// drains: frames 0 and 1 occupy the two slots, frames 2..5 overflow.
	const n = 6
	for i := 0; i < n; i++ {
		env.inject(time.Duration(i)*10*time.Microsecond,
			tcpFrame(uint32(1000+i), uint32(i), wire.TCPAck, nil))
	}
	env.run(t)

	if len(env.got) != n {
		t.Fatalf("deliveries = %d, want %d (overflow must never drop)", len(env.got), n)
	}
	for i, d := range env.got {
		_, th, _ := parseDelivery(t, d)
		if th.Seq != uint32(1000+i) {
			t.Fatalf("delivery %d seq = %d, want %d (order lost)", i, th.Seq, 1000+i)
		}
	}
	if v := env.e.Stats.RxOverflow.Value(); v != n-2 {
		t.Fatalf("rx_overflow = %d, want %d", v, n-2)
	}
	if v := env.e.Stats.RxCsumFrames.Value(); v != 2 {
		t.Fatalf("rx_csum_frames = %d, want 2 (engine verified only the queued frames)", v)
	}
	if v := env.e.Stats.SwCsumFrames.Value(); v != n-2 {
		t.Fatalf("sw_csum_frames = %d, want %d", v, n-2)
	}
	if len(swCalls) != n-2 {
		t.Fatalf("SW hook called %d times, want %d", len(swCalls), n-2)
	}
	for i, d := range swCalls {
		if d <= 0 {
			t.Fatalf("SW call %d charged %v, want a positive host-CPU charge", i, d)
		}
	}
}

// TestRxFIFOOverflowStillDropsCorruption: the software fallback must
// keep end-to-end protection — a corrupt frame arriving while the FIFO
// is full dies with a counter instead of sneaking past verification.
func TestRxFIFOOverflowStillDropsCorruption(t *testing.T) {
	env := &rxEnv{s: sim.New(2)}
	env.e = New(Config{
		Sim:   env.s,
		Name:  "rx-fifo-bad-test",
		Up:    func(f simnet.Frame) { env.got = append(env.got, delivery{at: env.s.Now(), data: f.Data}) },
		Costs: fifoCosts(0, 1),
	})

	env.inject(0, tcpFrame(1000, 1, wire.TCPAck, nil)) // fills the single slot
	bad := tcpFrame(2000, 1, wire.TCPAck, pattern(0, 100))
	bad[len(bad)-1] ^= 0xff
	env.inject(10*time.Microsecond, bad) // overflow path
	env.run(t)

	if len(env.got) != 1 {
		t.Fatalf("deliveries = %d, want 1 (the corrupt overflow frame must die)", len(env.got))
	}
	if v := env.e.Stats.RxOverflow.Value(); v != 1 {
		t.Fatalf("rx_overflow = %d, want 1", v)
	}
	if v := env.e.Stats.RxCsumBad.Value(); v != 1 {
		t.Fatalf("rx_csum_bad = %d, want 1", v)
	}
}

// TestRxFIFOOverflowFlushesOpenMerge: when an overflow frame belongs to
// a flow with an open LRO merge, the merge must flush first so the
// stream reaches the stack in order.
func TestRxFIFOOverflowFlushesOpenMerge(t *testing.T) {
	env := &rxEnv{s: sim.New(3)}
	env.e = New(Config{
		Sim:   env.s,
		Name:  "rx-fifo-merge-test",
		Up:    func(f simnet.Frame) { env.got = append(env.got, delivery{at: env.s.Now(), data: f.Data}) },
		Costs: fifoCosts(0, 1),
	})

	// The opened merge itself occupies the single FIFO slot (open merges
	// count as occupancy), so the second data frame overflows.
	env.inject(0, tcpFrame(1000, 1, wire.TCPAck, pattern(0, 600)))
	env.inject(10*time.Microsecond, tcpFrame(1600, 1, wire.TCPAck, pattern(6, 600)))
	env.run(t)

	if len(env.got) != 2 {
		t.Fatalf("deliveries = %d, want 2 (flushed merge, then the overflow frame)", len(env.got))
	}
	_, th0, got0 := parseDelivery(t, env.got[0])
	if th0.Seq != 1000 || len(got0) != 600 {
		t.Fatalf("first delivery seq=%d len=%d, want the flushed merge 1000/600", th0.Seq, len(got0))
	}
	_, th1, got1 := parseDelivery(t, env.got[1])
	if th1.Seq != 1600 || len(got1) != 600 {
		t.Fatalf("second delivery seq=%d len=%d, want the overflow frame 1600/600", th1.Seq, len(got1))
	}
	if v := env.e.Stats.RxOverflow.Value(); v != 1 {
		t.Fatalf("rx_overflow = %d, want 1", v)
	}
	if n := env.e.PendingMerges(); n != 0 {
		t.Fatalf("pending merges = %d after overflow flush, want 0", n)
	}
}

// txFifoEnv builds a transmit-side harness: an engine in front of a NIC
// whose peer records every wire frame.
type txFifoEnv struct {
	s   *sim.Sim
	e   *Engine
	got []simnet.Frame
	sw  []time.Duration
}

func newTxFifoEnv(t *testing.T, seed int64, oc costs.OffloadCosts) *txFifoEnv {
	t.Helper()
	env := &txFifoEnv{s: sim.New(seed)}
	seg := simnet.NewSegment(env.s)
	nicA := seg.AttachNamed("A", wire.MAC{1})
	nicB := seg.AttachNamed("B", wire.MAC{2})
	nicB.Rx = func(f simnet.Frame) { env.got = append(env.got, f) }
	nicA.Rx = func(f simnet.Frame) {}
	env.e = New(Config{
		Sim:  env.s,
		Name: "tx-fifo-test",
		NIC:  nicA,
		Up:   func(f simnet.Frame) {},
		SW: func(d time.Duration, then func()) {
			env.sw = append(env.sw, d)
			then()
		},
		Costs: oc,
	})
	return env
}

// TestTxFIFOOverflowFallsBackToSoftware: plain frames hitting a full
// transmit FIFO still reach the wire with a valid checksum; the
// checksum work moves to the host.
func TestTxFIFOOverflowFallsBackToSoftware(t *testing.T) {
	env := newTxFifoEnv(t, 4, fifoCosts(1, 0))

	const n = 3
	env.s.After(0, func() {
		for i := 0; i < n; i++ {
			f := tcpFrame(uint32(100+i*10), 1, wire.TCPAck, pattern(i, 200))
			// The stack under offload hands frames down unchecksummed.
			tp := f[wire.EthHeaderLen+wire.IPv4HeaderLen:]
			tp[wire.TCPChecksumOffset], tp[wire.TCPChecksumOffset+1] = 0, 0
			if err := env.e.Transmit(f); err != nil {
				t.Errorf("transmit %d: %v", i, err)
			}
		}
	})
	if err := env.s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}

	if len(env.got) != n {
		t.Fatalf("wire frames = %d, want %d (overflow must never drop)", len(env.got), n)
	}
	for i, f := range env.got {
		p, ok := codecParse(f.Data)
		if !ok {
			t.Fatalf("wire frame %d does not parse", i)
		}
		seg := f.Data[p.tpAt : wire.EthHeaderLen+int(p.ip.TotalLen)]
		if !wire.VerifyTCPChecksum(p.ip.Src, p.ip.Dst, seg) {
			t.Fatalf("wire frame %d left without a valid checksum", i)
		}
	}
	if v := env.e.Stats.TxOverflow.Value(); v != n-1 {
		t.Fatalf("tx_overflow = %d, want %d", v, n-1)
	}
	if v := env.e.Stats.SwCsumFrames.Value(); v != n-1 {
		t.Fatalf("sw_csum_frames = %d, want %d", v, n-1)
	}
	if len(env.sw) != n-1 {
		t.Fatalf("SW hook called %d times, want %d", len(env.sw), n-1)
	}
}

// TestTxFIFOOverflowSoftwareGSO: a TSO super-segment hitting a full
// FIFO degrades to software GSO — the host slices and checksums, and
// the wire sees the same MSS-sized frames it would have either way.
func TestTxFIFOOverflowSoftwareGSO(t *testing.T) {
	env := newTxFifoEnv(t, 5, fifoCosts(1, 0))

	payload := pattern(0, 3*DefaultMSS+500)
	super := tcpFrame(70000, 42, wire.TCPAck|wire.TCPPsh|wire.TCPFin, payload)
	env.s.After(0, func() {
		// A plain frame occupies the single FIFO slot...
		if err := env.e.Transmit(tcpFrame(10, 1, wire.TCPAck, pattern(9, 100))); err != nil {
			t.Errorf("plain transmit: %v", err)
		}
		// ...so the super-segment takes the software GSO path.
		if err := env.e.Transmit(super); err != nil {
			t.Errorf("super transmit: %v", err)
		}
	})
	if err := env.s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}

	if v := env.e.Stats.TxOverflow.Value(); v != 1 {
		t.Fatalf("tx_overflow = %d, want 1", v)
	}
	if v := env.e.Stats.SwSlices.Value(); v != 4 {
		t.Fatalf("sw_slices = %d, want 4", v)
	}
	if v := env.e.Stats.TSOSlices.Value(); v != 0 {
		t.Fatalf("tso_slices = %d, want 0 (the engine sliced nothing)", v)
	}

	// Collect the GSO slices off the wire (the plain frame is seq 10)
	// and check they are ordered, checksummed, and reassemble exactly.
	var rebuilt []byte
	var seqs []uint32
	for i, f := range env.got {
		p, ok := codecParse(f.Data)
		if !ok {
			t.Fatalf("wire frame %d does not parse", i)
		}
		seg := f.Data[p.tpAt : wire.EthHeaderLen+int(p.ip.TotalLen)]
		if !wire.VerifyTCPChecksum(p.ip.Src, p.ip.Dst, seg) {
			t.Fatalf("wire frame %d fails checksum verification", i)
		}
		if p.tcp.Seq == 10 {
			continue
		}
		seqs = append(seqs, p.tcp.Seq)
		rebuilt = append(rebuilt, f.Data[p.payAt:wire.EthHeaderLen+int(p.ip.TotalLen)]...)
	}
	if len(seqs) != 4 {
		t.Fatalf("GSO slices on the wire = %d, want 4", len(seqs))
	}
	for i, s := range seqs {
		if want := uint32(70000 + i*DefaultMSS); s != want {
			t.Fatalf("slice %d seq = %d, want %d (slices must leave in order)", i, s, want)
		}
	}
	if !bytes.Equal(rebuilt, payload) {
		t.Fatalf("reassembled GSO payload differs from the super-segment payload")
	}
	if len(env.sw) != 1 {
		t.Fatalf("SW hook called %d times, want 1 (one charge for the whole GSO pass)", len(env.sw))
	}
}

// TestFIFOOverflowDeterminism: the overflow machinery must not disturb
// the engine's determinism contract.
func TestFIFOOverflowDeterminism(t *testing.T) {
	run := func() []delivery {
		env := &rxEnv{s: sim.New(6)}
		env.e = New(Config{
			Sim:   env.s,
			Name:  "fifo-det-test",
			Up:    func(f simnet.Frame) { env.got = append(env.got, delivery{at: env.s.Now(), data: f.Data}) },
			Costs: fifoCosts(0, 2),
		})
		for i := 0; i < 10; i++ {
			env.inject(time.Duration(i)*15*time.Microsecond,
				tcpFrame(uint32(3000+i*200), uint32(i), wire.TCPAck, pattern(i, 200)))
		}
		env.run(t)
		return env.got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].at != b[i].at || !bytes.Equal(a[i].data, b[i].data) {
			t.Fatalf("delivery %d diverged between runs", i)
		}
	}
}
