package stack

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/wire"
)

func testStack(t *testing.T) *Control {
	t.Helper()
	s := sim.New(1)
	return NewControl(Config{
		Sim:      s,
		Name:     "t",
		LocalIP:  wire.IP(10, 0, 0, 1),
		LocalMAC: wire.MAC{1},
		Transmit: func([]byte) error { return nil },
	}, NewLocalPorts())
}

func TestSeqArithmetic(t *testing.T) {
	cases := []struct {
		a, b             uint32
		lt, leq, gt, geq bool
	}{
		{1, 2, true, true, false, false},
		{2, 2, false, true, false, true},
		{3, 2, false, false, true, true},
		// Wraparound: 0xffffffff is "before" 1.
		{0xffffffff, 1, true, true, false, false},
		{1, 0xffffffff, false, false, true, true},
	}
	for _, c := range cases {
		if seqLT(c.a, c.b) != c.lt || seqLEQ(c.a, c.b) != c.leq ||
			seqGT(c.a, c.b) != c.gt || seqGEQ(c.a, c.b) != c.geq {
			t.Errorf("seq compare %d vs %d wrong", c.a, c.b)
		}
	}
}

func TestQuickSeqOrderingTotality(t *testing.T) {
	f := func(a, b uint32) bool {
		// Exactly one of <, ==, > must hold under modular comparison
		// (when the distance is not exactly 2^31).
		if a == b {
			return seqLEQ(a, b) && seqGEQ(a, b) && !seqLT(a, b) && !seqGT(a, b)
		}
		if a-b == 1<<31 {
			return true // ambiguous by construction; excluded by TCP windows
		}
		return seqLT(a, b) != seqGT(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// makeEstablishedTCB builds a socket+tcb pair in ESTABLISHED state with
// rcvNxt at the given base, bypassing the handshake.
func makeEstablishedTCB(st *Stack, base uint32) (*Socket, *tcpcb) {
	s := st.newSocket(wire.ProtoTCP)
	s.local = Addr{IP: st.cfg.LocalIP, Port: 5000}
	s.remote = Addr{IP: wire.IP(10, 0, 0, 2), Port: 6000}
	tp := newTCPCB(st, s)
	s.tcb = tp
	tp.state = tcpEstablished
	tp.rcvNxt = base
	tp.rcvAdv = base + 8192
	return s, tp
}

// TestQuickReassemblyDeliversStream drives random segmentations (with
// duplication and overlap) through the reassembly queue and checks the
// socket sees exactly the original byte stream.
func TestQuickReassemblyDeliversStream(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st := testStack(t)
		const base = 1000
		streamLen := 200 + rng.Intn(1800)
		stream := make([]byte, streamLen)
		rng.Read(stream)
		s, tp := makeEstablishedTCB(st.Stack, base)

		// Cut the stream into segments.
		type segment struct{ off, n int }
		var segs []segment
		for off := 0; off < streamLen; {
			n := 1 + rng.Intn(300)
			if off+n > streamLen {
				n = streamLen - off
			}
			segs = append(segs, segment{off, n})
			off += n
		}
		// Shuffle, duplicate some, and extend some into overlaps.
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		extra := segs
		for _, sg := range segs {
			if rng.Intn(4) == 0 {
				extra = append(extra, sg) // duplicate
			}
			if rng.Intn(4) == 0 && sg.off+sg.n < streamLen {
				n2 := sg.n + rng.Intn(streamLen-sg.off-sg.n) + 1
				extra = append(extra, segment{sg.off, n2}) // overlapping
			}
		}
		for _, sg := range extra {
			st.tcpReassemble(nil, tp, base+uint32(sg.off), stream[sg.off:sg.off+sg.n], false)
		}
		if tp.rcvNxt != base+uint32(streamLen) {
			return false
		}
		if len(tp.reasm) != 0 {
			return false
		}
		got := make([]byte, streamLen)
		n := s.rcv.data.ReadAt(got, 0)
		s.rcv.drop(n)
		return n == streamLen && bytes.Equal(got, stream)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReassemblyHoleThenFill(t *testing.T) {
	st := testStack(t)
	s, tp := makeEstablishedTCB(st.Stack, 100)
	st.tcpReassemble(nil, tp, 110, []byte("world"), false)
	if s.rcv.len() != 0 || len(tp.reasm) != 1 {
		t.Fatalf("ooo segment delivered early: rcv=%d reasm=%d", s.rcv.len(), len(tp.reasm))
	}
	if !tp.ackNow {
		t.Fatal("out-of-order data must force an immediate (duplicate) ACK")
	}
	st.tcpReassemble(nil, tp, 100, []byte("hello "), false)
	// 6 bytes delivered, then the hole is only partly filled (104..110
	// still missing after "hello " covers 100..106): check precise edge.
	if tp.rcvNxt != 106 {
		t.Fatalf("rcvNxt = %d, want 106", tp.rcvNxt)
	}
	st.tcpReassemble(nil, tp, 106, []byte("...."), false)
	if tp.rcvNxt != 115 {
		t.Fatalf("rcvNxt = %d, want 115", tp.rcvNxt)
	}
	buf := make([]byte, 64)
	n := s.rcv.data.ReadAt(buf, 0)
	if string(buf[:n]) != "hello ....world" {
		t.Fatalf("stream = %q", buf[:n])
	}
}

// TestReassemblyAllocatesNothing: once warm, an out-of-order insert,
// a second hole, the fill of each and the drains allocate nothing: the
// queue holds its chains by value and changes in place.
func TestReassemblyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	st := testStack(t)
	s, tp := makeEstablishedTCB(st.Stack, 100)
	data := make([]byte, 40)
	round := func() {
		base := tp.rcvNxt
		st.tcpReassemble(nil, tp, base+30, data[30:], false)   // out of order
		st.tcpReassemble(nil, tp, base+10, data[10:20], false) // a second hole, inserted in front
		st.tcpReassemble(nil, tp, base, data[:10], false)      // fills the first: drains 20
		if tp.rcvNxt != base+20 || len(tp.reasm) != 1 {
			t.Fatalf("after the first fill: rcvNxt +%d, %d queued; want +20, 1", tp.rcvNxt-base, len(tp.reasm))
		}
		st.tcpReassemble(nil, tp, base+20, data[20:30], false) // fills the last: drains the rest
		if tp.rcvNxt != base+40 || len(tp.reasm) != 0 {
			t.Fatalf("after the last fill: rcvNxt +%d, %d queued; want +40, 0", tp.rcvNxt-base, len(tp.reasm))
		}
		s.rcv.drop(40)
	}
	round() // warm the pools and the queue's array
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a round of reassembly allocates %.2f objects once warm, want 0", n)
	}
}

// TestClosedTCBHandsBackReassembly: closing a tcb with out-of-order data
// queued hands the frames that data references back to mbuf's pools (a
// burst of new frames then reuses and overwrites them), and the emptied
// queue keeps its array for the block's next use.
func TestClosedTCBHandsBackReassembly(t *testing.T) {
	st := testStack(t)
	s, tp := makeEstablishedTCB(st.Stack, 100)
	sent := bytes.Repeat([]byte{0x5a}, 200)
	frame := mbuf.Frame(len(sent))
	copy(frame, sent)
	st.rx.frame, st.rx.owned = frame, true
	st.tcpReassemble(nil, tp, 150, frame[50:150], false)
	st.rx.done()
	if len(tp.reasm) != 1 {
		t.Fatalf("%d segments queued, want 1", len(tp.reasm))
	}
	tp.close(nil)
	for range 64 {
		f := mbuf.Frame(len(sent))
		for i := range f {
			f[i] = 0xee
		}
	}
	if bytes.Equal(frame, sent) {
		t.Error("the queued frame is intact after a burst: close kept its storage from the pools")
	}
	s.spare = tp
	if next := newTCPCB(st.Stack, s); len(next.reasm) != 0 || cap(next.reasm) == 0 {
		t.Errorf("the block's next use starts with a queue of %d/%d, want empty with the old array", len(next.reasm), cap(next.reasm))
	}
}

func TestReassemblyFinOutOfOrder(t *testing.T) {
	st := testStack(t)
	s, tp := makeEstablishedTCB(st.Stack, 100)
	// FIN arrives with the second segment first.
	st.tcpReassemble(nil, tp, 105, []byte("tail"), true)
	if tp.sawFin {
		t.Fatal("FIN processed before stream complete")
	}
	st.tcpReassemble(nil, tp, 100, []byte("head:"), false)
	if !tp.sawFin {
		t.Fatal("FIN not processed once stream completed")
	}
	if tp.state != tcpCloseWait {
		t.Fatalf("state = %v, want CLOSE_WAIT", tp.state)
	}
	if tp.rcvNxt != 100+9+1 {
		t.Fatalf("rcvNxt = %d (FIN must consume one sequence number)", tp.rcvNxt)
	}
	_ = s
}

func TestDelayedAckEverySecondSegment(t *testing.T) {
	st := testStack(t)
	_, tp := makeEstablishedTCB(st.Stack, 0)
	st.tcpReassemble(nil, tp, 0, []byte("a"), false)
	if tp.ackNow || !tp.delAck {
		t.Fatal("first segment should set delayed ACK only")
	}
	st.tcpReassemble(nil, tp, 1, []byte("b"), false)
	if !tp.ackNow {
		t.Fatal("second segment should force an ACK")
	}
}

// TestTimerWalksAllocationFree pins the steady-state cost of the
// periodic protocol timers. Every host runs them several times per
// virtual second, so at city scale even one allocation per tick
// dominates the simulator's heap churn — the walks reuse per-stack
// scratch and must stay allocation-free once warm.
func TestTimerWalksAllocationFree(t *testing.T) {
	st := testStack(t)
	for i := 0; i < 8; i++ {
		s, _ := makeEstablishedTCB(st.Stack, uint32(1000*i))
		s.local.Port = uint16(5000 + i)
		st.registerConn(s)
	}
	st.arp.Insert(wire.IP(10, 0, 0, 2), wire.MAC{2})
	st.arp.Insert(wire.IP(10, 0, 0, 3), wire.MAC{3})
	// First tick may grow the scratch slices; after that, nothing.
	st.tcpFastTimo(nil)
	st.tcpSlowTimo(nil)
	st.arp.timo(nil)
	if n := testing.AllocsPerRun(20, func() {
		st.tcpFastTimo(nil)
		st.tcpSlowTimo(nil)
		st.reasm.tick()
		st.arp.timo(nil)
		st.fastTickIdle()
		st.slowTickIdle(st.arp)
	}); n != 0 {
		t.Fatalf("timer tick allocates %.1f objects per run, want 0", n)
	}
}

// TestTimerIdleExact pins the timer threads' idle predicates against
// what each tick body acts on: a predicate may call a tick idle only if
// the tick would change nothing, and must not call a tick busy that
// would change nothing (else the fast path is lost, not just slower).
func TestTimerIdleExact(t *testing.T) {
	// lockWaiters leaves the protocol lock free with n procs queued on it
	// after the first, which Unlock has signalled but which has not run.
	lockWaiters := func(st *Control, n int) {
		st.mu.TryLock()
		s := st.cfg.Sim
		for i := 0; i <= n; i++ {
			s.SpawnDaemon("waiter", func(p *sim.Proc) { st.mu.Lock(p) })
		}
		if err := s.RunUntil(1); err != nil {
			t.Fatal(err)
		}
		st.mu.Unlock()
	}
	cases := []struct {
		name       string
		set        func(st *Control, tp *tcpcb)
		fast, slow bool // the tick acts
	}{
		{"quiescent", func(*Control, *tcpcb) {}, false, false},
		{"pending delayed ACK", func(_ *Control, tp *tcpcb) { tp.delAck = true }, true, false},
		{"rexmt armed", func(_ *Control, tp *tcpcb) { tp.timers[timerRexmt] = 3 }, false, true},
		{"persist armed", func(_ *Control, tp *tcpcb) { tp.timers[timerPersist] = 3 }, false, true},
		{"keep armed", func(_ *Control, tp *tcpcb) { tp.timers[timerKeep] = 3 }, false, true},
		{"2MSL armed", func(_ *Control, tp *tcpcb) { tp.state, tp.timers[timer2MSL] = tcpTimeWait, 3 }, false, true},
		{"keepalive on an established connection", func(_ *Control, tp *tcpcb) { tp.sock.keepAlive = true }, false, true},
		{"keepalive past established, no timer", func(_ *Control, tp *tcpcb) {
			tp.sock.keepAlive, tp.state = true, tcpCloseWait
		}, false, false},
		{"a timer on a listener", func(_ *Control, tp *tcpcb) { tp.state, tp.timers[timerRexmt] = tcpListen, 3 }, false, false},
		{"a held fragment", func(st *Control, _ *tcpcb) {
			h := wire.IPv4Header{ID: 7, Proto: wire.ProtoUDP, Src: wire.IP(10, 0, 0, 2), Dst: wire.IP(10, 0, 0, 1), Flags: wire.IPFlagMF}
			st.NewReassembler().Add(h, make([]byte, 16))
		}, false, true},
		{"a pending ARP entry", func(st *Control, _ *tcpcb) {
			st.arp.ResolveOrQueue(nil, wire.IP(10, 0, 0, 9), make([]byte, wire.EthHeaderLen))
		}, false, true},
		{"a resolved ARP entry", func(st *Control, _ *tcpcb) { st.arp.Insert(wire.IP(10, 0, 0, 9), wire.MAC{9}) }, false, true},
		{"the lock held", func(st *Control, _ *tcpcb) { st.mu.TryLock() }, true, true},
		{"the lock free with a waiter", func(st *Control, _ *tcpcb) { lockWaiters(st, 1) }, true, true},
		{"the lock free, its one waiter signalled", func(st *Control, _ *tcpcb) { lockWaiters(st, 0) }, false, false},
		{"StopTimers", func(st *Control, _ *tcpcb) { st.StopTimers() }, true, true},
	}
	for _, c := range cases {
		st := testStack(t)
		s, tp := makeEstablishedTCB(st.Stack, 0)
		st.registerConn(s)
		c.set(st, tp)
		if got := !st.fastTickIdle(); got != c.fast {
			t.Errorf("%s: fast tick busy = %v, want %v", c.name, got, c.fast)
		}
		if got := !st.slowTickIdle(st.arp); got != c.slow {
			t.Errorf("%s: slow tick busy = %v, want %v", c.name, got, c.slow)
		}
	}
}

// TestExpiryOrderFree: the reassembly tick walks its table in map
// order, so an expiry must depend on nothing but the entry's own age.
// Three datagrams expire in one tick while two younger ones stay; ten
// runs, each with a fresh map (and so a fresh iteration order), must
// count and keep the same.
func TestExpiryOrderFree(t *testing.T) {
	run := func() string {
		r := testStack(t).NewReassembler()
		frag := func(id uint16) {
			h := wire.IPv4Header{ID: id, Proto: wire.ProtoUDP, Src: wire.IP(10, 0, 0, 2), Dst: wire.IP(10, 0, 0, 1), Flags: wire.IPFlagMF}
			r.Add(h, make([]byte, 16))
		}
		for id := uint16(1); id <= 3; id++ {
			frag(id)
		}
		r.tick()
		frag(4)
		frag(5)
		var perTick []int
		for i := 1; i < reasmTTLTicks; i++ {
			perTick = append(perTick, r.tick())
		}
		if got := perTick[len(perTick)-1]; got != 3 {
			t.Fatalf("last tick expired %d datagrams, want 3", got)
		}
		var held []uint16
		for k := range r.held {
			held = append(held, k.id)
		}
		slices.Sort(held)
		return fmt.Sprint(perTick, held)
	}
	want := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: expiries and survivors %s, first run %s", i, got, want)
		}
	}
}

func TestRttUpdateJacobson(t *testing.T) {
	tp := &tcpcb{}
	tp.rttUpdate(100 * 1e6) // 100 ms
	if tp.srtt != 100e6 || tp.rttvar != 50e6 {
		t.Fatalf("initial srtt=%v rttvar=%v", tp.srtt, tp.rttvar)
	}
	tp.rttUpdate(200e6)
	// srtt += (200-100)/8 = 112.5ms; rttvar += (100-50)/4 = 62.5ms
	if tp.srtt != 112.5e6 || tp.rttvar != 62.5e6 {
		t.Fatalf("updated srtt=%v rttvar=%v", tp.srtt, tp.rttvar)
	}
	// Backoff growth and clamping.
	tp.rexmtShift = 0
	base := tp.rexmtTicks()
	tp.rexmtShift = 3
	if tp.rexmtTicks() != min(base*8, tcpMaxRexmtTicks) {
		t.Fatalf("backoff: base=%d shifted=%d", base, tp.rexmtTicks())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestLocalPorts(t *testing.T) {
	lp := NewLocalPorts()
	p1, err := lp.AllocEphemeral(wire.ProtoTCP)
	if err != nil || p1 < ephemeralFirst {
		t.Fatalf("ephemeral: %d %v", p1, err)
	}
	p2, _ := lp.AllocEphemeral(wire.ProtoTCP)
	if p1 == p2 {
		t.Fatal("duplicate ephemeral port")
	}
	if err := lp.Reserve(wire.ProtoTCP, 80, false); err != nil {
		t.Fatal(err)
	}
	if err := lp.Reserve(wire.ProtoTCP, 80, false); err == nil {
		t.Fatal("double reserve allowed")
	}
	// Same port, different protocol is fine.
	if err := lp.Reserve(wire.ProtoUDP, 80, false); err != nil {
		t.Fatal(err)
	}
	lp.Release(wire.ProtoTCP, 80)
	if err := lp.Reserve(wire.ProtoTCP, 80, false); err != nil {
		t.Fatal("release did not free port")
	}
}

func TestPortReuseAddr(t *testing.T) {
	lp := NewLocalPorts()
	if err := lp.Reserve(wire.ProtoTCP, 7000, true); err != nil {
		t.Fatal(err)
	}
	if err := lp.Reserve(wire.ProtoTCP, 7000, true); err != nil {
		t.Fatal("SO_REUSEADDR pair rejected")
	}
	if err := lp.Reserve(wire.ProtoTCP, 7000, false); err == nil {
		t.Fatal("non-reuse reserve of reuse port allowed")
	}
	lp.Release(wire.ProtoTCP, 7000)
	if !lp.InUse(wire.ProtoTCP, 7000) {
		t.Fatal("the first release freed a port the second reservation still holds")
	}
	lp.Release(wire.ProtoTCP, 7000)
	if lp.InUse(wire.ProtoTCP, 7000) {
		t.Fatal("refcount leak")
	}
}

func TestPortQuarantine(t *testing.T) {
	lp := NewLocalPorts()
	lp.Reserve(wire.ProtoTCP, 9000, false)
	lp.Quarantine(wire.ProtoTCP, 9000)
	lp.Release(wire.ProtoTCP, 9000) // original owner goes away
	if err := lp.Reserve(wire.ProtoTCP, 9000, false); err == nil {
		t.Fatal("quarantined port rebindable")
	}
	lp.Unquarantine(wire.ProtoTCP, 9000)
	if err := lp.Reserve(wire.ProtoTCP, 9000, false); err != nil {
		t.Fatal("unquarantined port not rebindable")
	}
}

func TestRouteTableLPM(t *testing.T) {
	rt := NewRouteTable()
	rt.Add(wire.IPAddr{}, 0, wire.IP(10, 0, 0, 254), false) // default via gw
	rt.Add(wire.IP(10, 0, 0, 0), 24, wire.IPAddr{}, true)   // on-link
	rt.Add(wire.IP(10, 0, 1, 0), 24, wire.IP(10, 0, 0, 9), false)

	if nh, ok := rt.Lookup(wire.IP(10, 0, 0, 7)); !ok || nh != wire.IP(10, 0, 0, 7) {
		t.Fatalf("on-link lookup: %v %v", nh, ok)
	}
	if nh, ok := rt.Lookup(wire.IP(10, 0, 1, 7)); !ok || nh != wire.IP(10, 0, 0, 9) {
		t.Fatalf("gateway lookup: %v %v", nh, ok)
	}
	if nh, ok := rt.Lookup(wire.IP(192, 168, 0, 1)); !ok || nh != wire.IP(10, 0, 0, 254) {
		t.Fatalf("default lookup: %v %v", nh, ok)
	}
	v := rt.Version()
	rt.Add(wire.IP(172, 16, 0, 0), 12, wire.IPAddr{}, true)
	if rt.Version() == v {
		t.Fatal("version must bump on change")
	}
}

// TestISSMatchesMathRand: a stack's ISS sequence is math/rand's over the
// stream keyed by its name, Uint32 and then Intn(64000) steps, across the
// source's 273-draw tap boundary and several buffer refills; a stack
// holds no source, and buffers at most as many draws as it has taken
// (issBatch at first).
func TestISSMatchesMathRand(t *testing.T) {
	// Seed 697's stream for "t" has an Int31 that Int31n(64000) rejects
	// (draw 173), so the rejection loop runs.
	for _, seed := range []int64{1, 3, -7, 1 << 40, 697} {
		for _, name := range []string{"t", "host.h17.stack.kstack", "a-rather-long-stack-name-past-thirty-two-bytes"} {
			s := sim.New(seed)
			st := New(Config{Sim: s, Name: name}, nil)
			r := rand.New(rand.NewSource(sim.StreamSeed(seed, "stack."+name)))
			want := r.Uint32()
			for i := range 700 {
				want += 64000 + uint32(r.Intn(64000))
				if got := st.iss(); got != want {
					t.Fatalf("seed %d, %q: ISS %d is %d, want %d", seed, name, i, got, want)
				}
				if len(st.issDraws) > max(issBatch, st.issTaken) {
					t.Fatalf("seed %d, %q: %d draws buffered after %d taken", seed, name, len(st.issDraws), st.issTaken)
				}
			}
		}
	}
}
