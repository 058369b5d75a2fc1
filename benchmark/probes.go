package main

import (
	"runtime"
	"time"

	"repro/internal/costs"
	"repro/internal/dataplane"
	"repro/internal/filter"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/metrics"
	"repro/internal/offload"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// A probe is a timed loop of direct calls into one layer's exported
// functions, on inputs shaped like the workload the metric name points
// at. run performs n operations and returns the host time the measured
// part took; anything it must rebuild between batches stays outside.
type probe struct {
	name string // metric name, unit ns per operation unless scale says otherwise
	run  func(n int) time.Duration
	// scale converts ns per operation into the metric's unit (0 = 1).
	scale float64
}

const probeBatches = 5

// timeProbe sizes a batch to about budget/probeBatches of host time,
// runs probeBatches of them and returns the median cost of one
// operation. Each batch is a host-clock span.
func timeProbe(p probe, budget time.Duration, log *spanLog, parent int) float64 {
	per := budget / probeBatches
	n := 64
	for {
		if d := p.run(n); d >= per/4 || n >= 1<<26 {
			n = int(float64(n) * float64(per) / float64(d+1))
			break
		}
		n *= 4
	}
	if n < 16 {
		n = 16
	}
	var costs []float64
	for i := 0; i < probeBatches; i++ {
		log.host(parent, "probe", p.name, func(int) {
			costs = append(costs, float64(p.run(n))/float64(n))
		})
	}
	v := median(costs)
	if p.scale != 0 {
		v *= p.scale
	}
	return v
}

// runProbes times every probe and fills m, including the metrics that
// fall out of a probe's set-up rather than its timing.
func runProbes(m map[string]float64, budget time.Duration, snap *metrics.Snapshot, log *spanLog) {
	parent := log.begin(0, "benchmark", "probes", clockHost, log.hostNow())
	for _, p := range allProbes(snap) {
		m[p.name] = timeProbe(p, budget, log, parent)
	}
	log.end(parent, log.hostNow(), "")

	fp := newFilterProbe(1024)
	fp.match()
	m["filter.probe.steps_per_match_s1024"] = float64(fp.set.Steps) / float64(fp.set.Runs)
	m["dataplane.virt_ingress_us_r128"] = us(newPlaneProbe(128).plane.IngressCost(probeFrame(probeFlow, wire.TCPAck, 64)))
	m["mbuf.probe.allocs_per_cycle"] = mbufAllocsPerCycle()
}

func allProbes(snap *metrics.Snapshot) []probe {
	f1, f16, f1024 := newFilterProbe(1), newFilterProbe(16), newFilterProbe(1024)
	p0, p128 := newPlaneProbe(0), newPlaneProbe(128)
	sumBuf := make([]byte, 8<<10)
	for i := range sumBuf {
		sumBuf[i] = byte(i * 7)
	}
	frame := probeFrame(probeFlow, wire.TCPAck, 1460)
	reg := syntheticRegistry(snap)

	return []probe{
		{name: "sim.probe.timer_ns_d1k", run: timerProbe(1 << 10)},
		{name: "sim.probe.timer_ns_d64k", run: timerProbe(64 << 10)},
		{name: "sim.probe.proc_handoff_ns", run: handoffProbe},
		{name: "sim.probe.resource_use_ns", run: resourceProbe},
		{name: "simnet.probe.tx_deliver_ns", run: txDeliverProbe},
		{name: "kern.probe.inject_ns", run: injectProbe},
		{name: "filter.probe.match_ns_s1", run: loop(func() { f1.match() })},
		{name: "filter.probe.match_ns_s16", run: loop(func() { f16.match() })},
		{name: "filter.probe.match_ns_s1024", run: loop(func() { f1024.match() })},
		{name: "filter.probe.install_remove_ns_s1024", run: loop(f1024.installRemove)},
		{name: "filter.probe.chain_eval_ns_r128", run: loop(func() { p128.plane.Chain.Eval(p128.data) })},
		{name: "filter.probe.compile_validate_ns", run: loop(func() {
			if filter.Compile(f1.spec).Validate() != nil {
				panic("benchmark: compiled filter does not validate")
			}
		})},
		{name: "dataplane.probe.ingress_ns_r0", run: loop(func() { p0.ingress() })},
		{name: "dataplane.probe.ingress_ns_r128", run: loop(func() { p128.ingress() })},
		{name: "dataplane.probe.new_flow_ns", run: newFlowProbe},
		{name: "offload.probe.rx_ns", run: offloadRxProbe},
		{name: "offload.probe.tx_super_ns", run: offloadTxProbe},
		{name: "mbuf.probe.alloc_release_ns", run: loop(func() { mbuf.Alloc(1460).Release() })},
		{name: "mbuf.probe.prepend_ns", run: loop(func() {
			c := mbuf.Alloc(1460)
			c.Prepend(wire.TCPHeaderLen)
			c.Prepend(wire.IPv4HeaderLen)
			c.Prepend(wire.EthHeaderLen)
			c.Release()
		})},
		{name: "mbuf.probe.copyregion_ns", run: copyRegionProbe()},
		{name: "wire.probe.checksum_ns_per_kib", scale: 1.0 / 8, run: loop(func() { probeChecksum(sumBuf) })},
		{name: "wire.probe.copy_and_sum_ns_per_kib", scale: 1.0 / 8, run: copyAndSumProbe(sumBuf)},
		{name: "wire.probe.parse_ns", run: loop(func() { probeParse(frame) })},
		{name: "wire.probe.fixup_ns", run: loop(func() {
			ck := wire.ChecksumFixup(0x1234, frame[26:30], frame[30:34])
			sink16 = wire.ChecksumFixup(ck, frame[34:36], frame[36:38])
		})},
		{name: "metrics.probe.snapshot_us", scale: 1e-3, run: loop(func() { sinkSnap = reg.Snapshot(0) })},
	}
}

// Results the compiler must not discard.
var (
	sink16   uint16
	sinkSnap metrics.Snapshot
)

// loop turns a single operation into a probe run function.
func loop(op func()) func(int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		return time.Since(t0)
	}
}

// --- sim -----------------------------------------------------------------

// timerProbe schedules and dispatches timers on an event queue that
// already holds depth far-future timers (a city has tens of thousands
// pending; a two-host world a few dozen).
func timerProbe(depth int) func(int) time.Duration {
	return func(n int) time.Duration {
		s := sim.New(1)
		for i := 0; i < depth; i++ {
			s.After(time.Hour+time.Duration(i), func() {})
		}
		fired := 0
		fn := func() { fired++ }
		t0 := time.Now()
		for done := 0; done < n; {
			k := min(256, n-done)
			for i := 0; i < k; i++ {
				s.After(time.Duration(i+1), fn)
			}
			if err := s.RunFor(time.Duration(k)); err != nil {
				panic(err)
			}
			done += k
		}
		d := time.Since(t0)
		if fired != n {
			panic("benchmark: timer probe lost events")
		}
		return d
	}
}

// handoffProbe is one process sleeping n times: each sleep schedules an
// event, yields to the scheduler goroutine and is resumed by it.
func handoffProbe(n int) time.Duration {
	s := sim.New(1)
	s.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	t0 := time.Now()
	if err := s.Run(); err != nil {
		panic(err)
	}
	return time.Since(t0)
}

// resourceProbe is one process charging an uncontended CPU n times.
func resourceProbe(n int) time.Duration {
	s := sim.New(1)
	s.Deadline = sim.Time(1000 * time.Hour)
	cpu := sim.Resource{Name: "probe.cpu"}
	s.Spawn("user", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			cpu.Use(p, sim.TaskPriority, time.Microsecond)
		}
	})
	t0 := time.Now()
	if err := s.Run(); err != nil {
		panic(err)
	}
	return time.Since(t0)
}

// --- frames --------------------------------------------------------------

// flow5 is the 5-tuple (and MACs) a probe frame is built for.
type flow5 struct {
	srcMAC, dstMAC wire.MAC
	src, dst       wire.IPAddr
	sport, dport   uint16
}

var (
	probeMACA = wire.MAC{2, 0, 0, 0, 0, 1}
	probeMACB = wire.MAC{2, 0, 0, 0, 0, 2}
	probeFlow = flow5{probeMACA, probeMACB, wire.IP(10, 0, 0, 1), wire.IP(10, 0, 0, 2), 1024, 5001}
)

// probeFrame builds a well-formed Ethernet/IPv4/TCP frame with a valid
// checksum, sequence number 1000 and n payload bytes.
func probeFrame(f flow5, flags uint8, n int) []byte {
	return probeFrameSeq(f, flags, 1000, n)
}

func probeFrameSeq(f flow5, flags uint8, seq uint32, n int) []byte {
	b := make([]byte, wire.EthHeaderLen+wire.IPv4HeaderLen+wire.TCPHeaderLen+n)
	eh := wire.EthHeader{Dst: f.dstMAC, Src: f.srcMAC, Type: wire.EtherTypeIPv4}
	eh.Marshal(b)
	ip := wire.IPv4Header{TotalLen: uint16(len(b) - wire.EthHeaderLen), ID: uint16(seq), TTL: wire.DefaultTTL,
		Proto: wire.ProtoTCP, Src: f.src, Dst: f.dst}
	ip.Marshal(b[wire.EthHeaderLen:])
	seg := b[wire.EthHeaderLen+wire.IPv4HeaderLen:]
	for i := wire.TCPHeaderLen; i < len(seg); i++ {
		seg[i] = byte(i)
	}
	th := wire.TCPHeader{SrcPort: f.sport, DstPort: f.dport, Seq: seq, Ack: 1, Flags: flags, Window: 8192}
	th.Marshal(seg)
	th.Checksum = wire.TCPChecksum(f.src, f.dst, seg[:wire.TCPHeaderLen], seg[wire.TCPHeaderLen:])
	th.Marshal(seg)
	return b
}

// --- simnet, kern ----------------------------------------------------------

// txDeliverProbe transmits full-size frames from one station to another
// on a shared segment: medium acquisition, serialization, delivery.
func txDeliverProbe(n int) time.Duration {
	s := sim.New(1)
	s.Deadline = sim.Time(1000 * time.Hour)
	seg := simnet.NewSegment(s)
	a, b := seg.AttachNamed("a", probeMACA), seg.AttachNamed("b", probeMACB)
	got := 0
	b.Rx = func(simnet.Frame) { got++ }
	a.Rx = func(simnet.Frame) {}
	frame := probeFrame(probeFlow, wire.TCPAck, 1460)
	t0 := time.Now()
	for done := 0; done < n; {
		k := min(64, n-done)
		for i := 0; i < k; i++ {
			if err := a.Transmit(frame); err != nil {
				panic(err)
			}
		}
		if err := s.RunFor(time.Second); err != nil {
			panic(err)
		}
		done += k
	}
	d := time.Since(t0)
	if got != n {
		panic("benchmark: segment probe lost frames")
	}
	return d
}

// injectProbe runs frames through a host's receive path — device
// charge, packet filter (one session filter over the catch-all),
// delivery copy, endpoint queue — with a receiver draining the endpoint.
func injectProbe(n int) time.Duration {
	s := sim.New(1)
	s.Deadline = sim.Time(1000 * time.Hour)
	seg := simnet.NewSegment(s)
	h := kern.NewHost(s, seg, "b", probeMACB, probeFlow.dst, costs.CalibrateTable2(costs.DECLibrarySHMIPF()))
	fallback := h.NewEndpoint(0)
	if _, err := fallback.InstallProgram(kern.CatchAllProgram(), 0); err != nil {
		panic(err)
	}
	ep := h.NewEndpoint(0)
	if _, err := ep.InstallFilter(probeSpec(probeFlow), 1); err != nil {
		panic(err)
	}
	got := 0
	s.SpawnDaemon("receiver", func(p *sim.Proc) {
		for {
			if _, ok := ep.Recv(p); !ok {
				return
			}
			got++
		}
	})
	frame := probeFrame(probeFlow, wire.TCPAck, 1460)
	t0 := time.Now()
	for done := 0; done < n; {
		k := min(64, n-done)
		for i := 0; i < k; i++ {
			h.Inject(frame)
		}
		if err := s.RunFor(time.Second); err != nil {
			panic(err)
		}
		done += k
	}
	d := time.Since(t0)
	if got != n {
		panic("benchmark: inject probe lost frames")
	}
	return d
}

// probeSpec is the session filter that claims frames of flow f at the
// receiving host.
func probeSpec(f flow5) filter.MatchSpec {
	return filter.MatchSpec{Proto: wire.ProtoTCP, LocalIP: f.dst, LocalPort: f.dport, RemoteIP: f.src, RemotePort: f.sport}
}

// --- filter ----------------------------------------------------------------

// filterProbe is a filter set shaped like a decomposed server host with
// n sessions: n session filters over one catch-all, and a frame that
// belongs to the session installed last — so Match walks all n.
type filterProbe struct {
	set   *filter.Set
	spec  filter.MatchSpec // the session the frame belongs to
	prog  filter.Program
	frame []byte
}

func newFilterProbe(n int) *filterProbe {
	p := &filterProbe{set: filter.NewSet()}
	if _, err := p.set.Install(kern.CatchAllProgram(), filter.MatchSpec{}, 0, nil); err != nil {
		panic(err)
	}
	var f flow5
	for i := 0; i < n; i++ {
		f = probeFlow
		f.sport = uint16(1024 + i)
		p.spec = probeSpec(f)
		p.prog = filter.Compile(p.spec)
		if _, err := p.set.Install(p.prog, p.spec, 1, i); err != nil {
			panic(err)
		}
	}
	p.frame = probeFrame(f, wire.TCPAck, 64)
	return p
}

func (p *filterProbe) match() *filter.Filter {
	m, _ := p.set.Match(p.frame)
	return m
}

// installRemove is the write side: a session arrives and leaves.
func (p *filterProbe) installRemove() {
	f, err := p.set.Install(p.prog, p.spec, 1, nil)
	if err != nil {
		panic(err)
	}
	p.set.Remove(f.ID)
}

// --- dataplane ---------------------------------------------------------------

// planeProbe is a load-balancer plane with one VIP, rules never-matching
// rules ahead of it, and an established client flow whose frames it
// rewrites and hairpins to the backend.
type planeProbe struct {
	plane *dataplane.Plane
	data  []byte   // a mid-stream frame of the established flow
	out   [][]byte // frames the plane transmitted
}

var (
	probeVIP     = wire.IP(10, 0, 0, 100)
	probeBackend = wire.IP(10, 0, 1, 1)
	probeLBMAC   = wire.MAC{2, 0, 0, 0, 0, 9}
)

func vipFlow(sport uint16) flow5 {
	return flow5{probeMACA, probeLBMAC, wire.IP(10, 0, 2, 1), probeVIP, sport, 80}
}

func newPlaneProbe(rules int) *planeProbe {
	p := &planeProbe{}
	p.plane = dataplane.New(dataplane.Config{
		Sim: sim.New(1), Name: "lb", LocalIP: wire.IP(10, 0, 0, 2), LocalMAC: probeLBMAC,
		Transmit: func(frame []byte) error {
			if len(p.out) < 4 {
				p.out = append(p.out, frame)
			}
			return nil
		},
	})
	for i := 0; i < rules; i++ {
		prog := filter.Compile(filter.MatchSpec{RemoteIP: wire.IP(192, 0, 2, byte(1+i))})
		if _, err := p.plane.Chain.Append(prog, filter.VerdictDrop); err != nil {
			panic(err)
		}
	}
	backend := dataplane.Backend{Name: "be0", IP: probeBackend, Port: 8080, MAC: wire.MAC{2, 0, 0, 0, 1, 1}}
	if _, err := p.plane.InstallVIP(probeVIP, 80, []dataplane.Backend{backend}); err != nil {
		panic(err)
	}
	f := vipFlow(40000)
	p.plane.Ingress(probeFrame(f, wire.TCPSyn, 0))
	p.data = probeFrame(f, wire.TCPAck, 64)
	p.out = nil
	return p
}

func (p *planeProbe) ingress() filter.Verdict {
	_, v := p.plane.Ingress(p.data)
	return v
}

// newFlowProbe admits new connections through the VIP: Maglev pick,
// SNAT port, conntrack insert. A fresh plane per 2 048 connections
// keeps it inside the SNAT pool; building it is not timed.
func newFlowProbe(n int) time.Duration {
	var total time.Duration
	syns := make([][]byte, 2048)
	for i := range syns {
		syns[i] = probeFrame(vipFlow(uint16(10000+i)), wire.TCPSyn, 0)
	}
	for done := 0; done < n; {
		p := newPlaneProbe(0)
		k := min(len(syns), n-done)
		t0 := time.Now()
		for _, syn := range syns[:k] {
			p.plane.Ingress(syn)
		}
		total += time.Since(t0)
		if p.plane.FlowCount() != k+1 {
			panic("benchmark: new-flow probe did not create its flows")
		}
		done += k
	}
	return total
}

// --- offload -----------------------------------------------------------------

func newEngine(s *sim.Sim, up func(simnet.Frame)) *offload.Engine {
	seg := simnet.NewSegment(s)
	nic := seg.AttachNamed("b", probeMACB)
	peer := seg.AttachNamed("a", probeMACA)
	peer.Rx = func(simnet.Frame) {}
	return offload.New(offload.Config{
		Sim: s, Name: "b", NIC: nic, Up: up,
		Costs: costs.DECLibrarySHMIPFOffload().Offload,
	})
}

// offloadRxProbe feeds the engine an in-order stream of full-size
// segments: checksum verify, LRO merge, flush into the host path.
func offloadRxProbe(n int) time.Duration {
	s := sim.New(1)
	s.Deadline = sim.Time(1000 * time.Hour)
	delivered := 0
	e := newEngine(s, func(f simnet.Frame) { delivered += len(f.Data) })
	const ring = 64
	frames := make([][]byte, ring)
	for i := range frames {
		frames[i] = probeFrameSeq(probeFlow, wire.TCPAck, uint32(1000+i*1460), 1460)
	}
	t0 := time.Now()
	for done := 0; done < n; {
		k := min(ring, n-done)
		for _, f := range frames[:k] {
			e.Rx(simnet.Frame{Data: f})
		}
		if err := s.RunFor(time.Second); err != nil { // past the hold timer: everything flushes
			panic(err)
		}
		done += k
	}
	d := time.Since(t0)
	if delivered < n*1460 {
		panic("benchmark: offload rx probe lost payload")
	}
	return d
}

// offloadTxProbe hands the engine 8xMSS super-segments: TSO slicing,
// per-slice checksum, and the eight wire frames that result.
func offloadTxProbe(n int) time.Duration {
	s := sim.New(1)
	s.Deadline = sim.Time(1000 * time.Hour)
	e := newEngine(s, func(simnet.Frame) {})
	tx := probeFlow
	tx.srcMAC, tx.dstMAC, tx.src, tx.dst = probeMACB, probeMACA, probeFlow.dst, probeFlow.src
	super := probeFrame(tx, wire.TCPAck, offload.DefaultTSOMax)
	t0 := time.Now()
	for done := 0; done < n; {
		k := min(8, n-done)
		for i := 0; i < k; i++ {
			if err := e.Transmit(super); err != nil {
				panic(err)
			}
		}
		if err := s.RunFor(time.Second); err != nil {
			panic(err)
		}
		done += k
	}
	d := time.Since(t0)
	if got := int(e.Stats.TSOSlices.Value() + e.Stats.SwSlices.Value()); got != 8*n {
		panic("benchmark: offload tx probe did not slice every super-segment")
	}
	return d
}

// --- mbuf, wire, metrics -------------------------------------------------------

func copyRegionProbe() func(int) time.Duration {
	src := mbuf.Alloc(8 << 10)
	return loop(func() { src.CopyRegion(1460, 1460).Release() })
}

// mbufAllocsPerCycle is the Go heap allocations one warmed-up
// Alloc/Release cycle costs (0 when the pools recycle everything).
func mbufAllocsPerCycle() float64 {
	const n = 10000
	for i := 0; i < 100; i++ {
		mbuf.Alloc(1460).Release()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		mbuf.Alloc(1460).Release()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// probeChecksum sums an 8 KiB buffer the way the stack does, one
// MSS-sized piece at a time.
func probeChecksum(b []byte) uint16 {
	var c wire.Checksummer
	for off := 0; off < len(b); off += 1460 {
		c.Add(b[off:min(off+1460, len(b))])
	}
	sink16 = c.Sum()
	return sink16
}

func copyAndSumProbe(b []byte) func(int) time.Duration {
	ch := mbuf.FromBytes(b)
	dst := make([]byte, len(b))
	return loop(func() {
		var c wire.Checksummer
		c.CopyAndSum(dst, ch)
		sink16 = c.Sum()
	})
}

// probeParse walks a frame's three headers as the receive path does.
func probeParse(frame []byte) (wire.IPv4Header, wire.TCPHeader) {
	if _, err := wire.UnmarshalEth(frame); err != nil {
		panic(err)
	}
	ip, hl, err := wire.UnmarshalIPv4(frame[wire.EthHeaderLen:])
	if err != nil {
		panic(err)
	}
	tcp, _, err := wire.UnmarshalTCP(frame[wire.EthHeaderLen+hl:])
	if err != nil {
		panic(err)
	}
	return ip, tcp
}

// syntheticRegistry builds a registry with as many instruments of each
// kind as the workload's snapshot has, so Snapshot is timed at the
// workload's size even where only the snapshot is reachable (city).
func syntheticRegistry(snap *metrics.Snapshot) *metrics.Registry {
	reg := metrics.NewRegistry()
	sc := reg.Scope("probe")
	if snap == nil {
		return reg
	}
	for i, it := range snap.Items {
		switch it.Kind {
		case metrics.KindHistogram.String():
			sc.Histogram(it.Name).Observe(int64(i))
		case metrics.KindGauge.String():
			sc.GaugeFunc(it.Name, func() int64 { return 1 })
		default:
			sc.NewCounter(it.Name).Inc()
		}
	}
	return reg
}
