// Package dataplane grows the kernel packet filter into a programmable
// data plane: the stateful extension layer eBPF/netfilter occupy in a
// modern kernel, hosted here by the kern.Host hook the paper's filter
// VM already sits behind, and deterministic on the virtual clock.
//
// Three services compose:
//
//   - Connection tracking: 5-tuple flow entries with a TCP-state-aware
//     lifecycle, idle garbage collection on the virtual clock, a
//     deterministic table-full eviction policy, and per-state gauges.
//   - NAT: the load balancer's full NAT, with every rewrite's IP and
//     transport checksums updated incrementally (RFC 1624) via the fused
//     wire checksummer — payload is never re-summed.
//   - L4 load balancing: one simulated VIP spreads client connections
//     across a backend pool by Maglev-style consistent hashing.
//     Conntrack pins established flows across pool resizes; when a
//     backend dies, embryonic flows re-home to a surviving backend
//     (the client's SYN retransmit completes the handshake there) and
//     established flows are reset cleanly, releasing every session and
//     SNAT port.
//
// A rule Chain (filter VM programs with verdicts) runs ahead of the
// stateful stages, netfilter-style; its traversal cost is linear in the
// chain's instruction count, which is what the chain-length benchmarks
// measure.
package dataplane

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The plane's fixed parameters. Only DefaultMaxFlows and DefaultSNATCount
// can be overridden (Config), for the table-full and port-exhaustion tests.
const (
	DefaultPerInstr        = 25 * time.Nanosecond // per chain VM instruction
	DefaultPerPacket       = 1 * time.Microsecond // fixed hook cost per frame
	DefaultMaxFlows        = 65536
	DefaultEstablishedIdle = 5 * time.Minute
	DefaultTransientIdle   = 30 * time.Second
	DefaultUDPIdle         = time.Minute
	DefaultClosedLinger    = 5 * time.Second
	DefaultGCInterval      = time.Second
	DefaultSNATBase        = 61000
	DefaultSNATCount       = 4096
)

// Config assembles a plane on one host.
type Config struct {
	Sim  *sim.Sim
	Name string // host name, for diagnostics

	// LocalIP/LocalMAC identify the hosting machine: the SNAT side of
	// load-balanced flows and the source of synthesized frames.
	LocalIP  wire.IPAddr
	LocalMAC wire.MAC

	// Transmit sends the frames the plane originates or hairpins
	// (kern.Host.Transmit).
	Transmit func(frame []byte) error

	MaxFlows  int // conntrack table size (default DefaultMaxFlows)
	SNATCount int // SNAT port-pool size (default DefaultSNATCount)
}

// Stats counts plane activity; BindMetrics registers every counter.
type Stats struct {
	RxFrames   metrics.Counter // frames the ingress hook examined
	Rewrites   metrics.Counter // frames NAT-rewritten (both flow directions)
	Hairpins   metrics.Counter // rewritten frames forwarded back out the wire
	Drops      metrics.Counter // frames the plane dropped
	ARPReplies metrics.Counter // proxy-ARP answers for owned VIPs

	CTCreated metrics.Counter // flows admitted to the table
	CTExpired metrics.Counter // flows collected by idle GC
	CTEvicted metrics.Counter // flows evicted by the table-full policy
	CTInvalid metrics.Counter // mid-stream segments with no flow entry

	LBConns    metrics.Counter // connections admitted through a VIP
	LBRefused  metrics.Counter // VIP connections with no live backend
	LBRehomed  metrics.Counter // embryonic flows re-pointed after a backend died
	LBResets   metrics.Counter // established flows reset after a backend died
	SNATFailed metrics.Counter // connections refused for port-pool exhaustion
}

// Backend is one pool member behind a VIP.
type Backend struct {
	Name string // hash key for the Maglev permutation; unique in the pool
	IP   wire.IPAddr
	Port uint16
	MAC  wire.MAC // static neighbor entry: the plane never ARPs

	Alive     bool
	Conns     metrics.Counter // connections ever pinned here
	liveFlows int             // currently pinned flows (gauge)
}

// VIP is one virtual service: an owned IP:port spread across a backend
// pool. Backends keep their install index for the life of the VIP, so
// metrics names and flow pins stay stable as the pool changes.
type VIP struct {
	IP       wire.IPAddr
	Port     uint16
	backends []*Backend
	table    []int // Maglev slot -> backend index; nil when pool is empty
	plane    *Plane
}

// vipKey identifies an owned (IP, port) service.
type vipKey struct {
	ip   wire.IPAddr
	port uint16
}

func sortVIPKeys(keys []vipKey) {
	sort.Slice(keys, func(i, j int) bool {
		for b := 0; b < 4; b++ {
			if keys[i].ip[b] != keys[j].ip[b] {
				return keys[i].ip[b] < keys[j].ip[b]
			}
		}
		return keys[i].port < keys[j].port
	})
}

func sortFlowsByID(fs []*flow) {
	sort.Slice(fs, func(i, j int) bool { return fs[i].id < fs[j].id })
}

// Plane is the host's programmable data plane. It implements
// filter.Hook; install with kern.Host.SetHook.
type Plane struct {
	cfg   Config
	Chain *filter.Chain

	ct         map[wire.Flow]ctEntry
	flowCount  int
	stateCount [numStates]int64
	nextFlowID uint64

	vips     map[vipKey]*VIP
	arpOwned map[wire.IPAddr]int // VIP addresses we proxy-ARP for (refcounted)

	snat  *portAlloc
	scope *metrics.Scope // bound registry scope, for late-added backends

	Stats Stats
}

// New builds a plane and starts its conntrack GC daemon.
func New(cfg Config) *Plane {
	if cfg.MaxFlows <= 0 {
		cfg.MaxFlows = DefaultMaxFlows
	}
	if cfg.SNATCount <= 0 {
		cfg.SNATCount = DefaultSNATCount
	}
	p := &Plane{
		cfg:      cfg,
		Chain:    filter.NewChain(),
		ct:       make(map[wire.Flow]ctEntry),
		vips:     make(map[vipKey]*VIP),
		arpOwned: make(map[wire.IPAddr]int),
		snat:     newPortAlloc(DefaultSNATBase, cfg.SNATCount),
	}
	cfg.Sim.Every(DefaultGCInterval, p.gc)
	return p
}

// BindMetrics registers the plane's counters and gauges under a scope
// (typically "host.<name>.kern.dataplane").
func (p *Plane) BindMetrics(sc *metrics.Scope) {
	if sc == nil {
		return
	}
	p.scope = sc
	sc.Counter("rx_frames", &p.Stats.RxFrames)
	sc.Counter("rewrites", &p.Stats.Rewrites)
	sc.Counter("hairpins", &p.Stats.Hairpins)
	sc.Counter("drops", &p.Stats.Drops)
	sc.Counter("arp_replies", &p.Stats.ARPReplies)
	sc.GaugeFunc("chain_rules", func() int64 { return int64(p.Chain.Len()) })

	ct := sc.Sub("ct")
	ct.Counter("created", &p.Stats.CTCreated)
	ct.Counter("expired", &p.Stats.CTExpired)
	ct.Counter("evicted", &p.Stats.CTEvicted)
	ct.Counter("invalid", &p.Stats.CTInvalid)
	ct.GaugeFunc("flows", func() int64 { return int64(p.flowCount) })
	states := ct.Sub("state")
	for s := StateNew; s < numStates; s++ {
		states.GaugeFunc(stateNames[s], func() int64 { return p.stateCount[s] })
	}

	lb := sc.Sub("lb")
	lb.Counter("conns", &p.Stats.LBConns)
	lb.Counter("refused", &p.Stats.LBRefused)
	lb.Counter("rehomed", &p.Stats.LBRehomed)
	lb.Counter("resets", &p.Stats.LBResets)
	lb.Counter("snat_failed", &p.Stats.SNATFailed)
	lb.GaugeFunc("snat_in_use", func() int64 { return int64(p.snat.inUseCount()) })

	for _, v := range p.sortedVIPs() {
		for i, b := range v.backends {
			p.bindBackend(v, i, b)
		}
	}
}

// bindBackend registers one backend's distribution instruments.
func (p *Plane) bindBackend(v *VIP, idx int, b *Backend) {
	if p.scope == nil {
		return
	}
	bs := p.scope.Sub("backend").Sub(fmt.Sprintf("%d", idx))
	bs.Counter("conns", &b.Conns)
	bs.GaugeFunc("flows", func() int64 { return int64(b.liveFlows) })
}

// --- Service installation ----------------------------------------------

// InstallVIP creates a virtual service at (ip, port) over the given
// backend pool. The plane answers ARP for the VIP address and full-NATs
// admitted connections (DNAT to the chosen backend, SNAT to the host's
// own address) so backends see ordinary unicast traffic.
func (p *Plane) InstallVIP(ip wire.IPAddr, port uint16, backends []Backend) (*VIP, error) {
	key := vipKey{ip: ip, port: port}
	if _, dup := p.vips[key]; dup {
		return nil, fmt.Errorf("dataplane: VIP %v:%d already installed", ip, port)
	}
	v := &VIP{IP: ip, Port: port, plane: p}
	for i := range backends {
		b := backends[i]
		b.Alive = true
		v.backends = append(v.backends, &b)
		p.bindBackend(v, i, v.backends[i])
	}
	v.rebuild()
	p.vips[key] = v
	p.arpOwned[ip]++
	return v, nil
}

// sortedVIPs returns the installed VIPs in (ip, port) order.
func (p *Plane) sortedVIPs() []*VIP {
	keys := make([]vipKey, 0, len(p.vips))
	for k := range p.vips {
		keys = append(keys, k)
	}
	sortVIPKeys(keys)
	out := make([]*VIP, len(keys))
	for i, k := range keys {
		out[i] = p.vips[k]
	}
	return out
}

// rebuild recomputes the VIP's Maglev table from its live backends.
func (v *VIP) rebuild() {
	keys := make([]string, 0, len(v.backends))
	idx := make([]int, 0, len(v.backends))
	for i, b := range v.backends {
		if b.Alive {
			keys = append(keys, b.Name)
			idx = append(idx, i)
		}
	}
	slots := maglevTable(keys, DefaultTableSize)
	if slots == nil {
		v.table = nil
		return
	}
	v.table = make([]int, len(slots))
	for s, k := range slots {
		v.table[s] = idx[k]
	}
}

// pick selects the backend for a new connection, or -1 when the pool
// has no live member.
func (v *VIP) pick(t wire.Flow) int {
	if len(v.table) == 0 {
		return -1
	}
	return v.table[flowHash(t)%uint64(len(v.table))]
}

// AddBackend grows the pool. The Maglev rebuild moves only ~1/n of the
// table's slots, and flows already pinned by conntrack never move.
func (v *VIP) AddBackend(b Backend) *Backend {
	b.Alive = true
	nb := &b
	v.backends = append(v.backends, nb)
	v.plane.bindBackend(v, len(v.backends)-1, nb)
	v.rebuild()
	return nb
}

// KillBackend marks backend i dead, rebuilds the table, and migrates
// its sessions: embryonic flows (no reply seen yet) re-home to a live
// backend so the client's SYN retransmission completes the handshake
// there; established flows are terminated with a synthesized RST to the
// client. Either way every session and SNAT port is released — nothing
// leaks on the dead pool member.
func (v *VIP) KillBackend(i int) {
	p := v.plane
	if i < 0 || i >= len(v.backends) || !v.backends[i].Alive {
		return
	}
	v.backends[i].Alive = false
	v.rebuild()

	flows := p.sortedFlowsByID()
	for _, f := range flows {
		if f.vip != v || f.backend != i {
			continue
		}
		if !f.sawReply && f.orig.Proto == wire.ProtoTCP {
			if nb := v.pick(f.orig); nb >= 0 {
				p.rehome(f, v, nb)
				p.Stats.LBRehomed.Inc()
				continue
			}
		}
		if f.orig.Proto == wire.ProtoTCP && f.state != StateClosed {
			// Reset both ends: the client sees its connection die, and
			// the dead pool member's half of the session is torn down
			// rather than left dangling in its stack.
			p.cfg.Transmit(p.synthRST(f))
			p.cfg.Transmit(p.synthRSTBackend(f))
			p.Stats.LBResets.Inc()
		}
		p.removeFlow(f)
	}
}

// rehome re-points an embryonic flow at backend nb: the reply-side
// conntrack key and both translations move to the new backend; the
// SNAT port is kept.
func (p *Plane) rehome(f *flow, v *VIP, nb int) {
	old := v.backends[f.backend]
	old.liveFlows--
	b := v.backends[nb]
	b.Conns.Inc()
	b.liveFlows++

	delete(p.ct, f.reply())
	f.backend = nb
	f.fwd.to.Dst, f.fwd.to.DstPort, f.fwd.dstMAC = b.IP, b.Port, b.MAC
	p.ct[f.reply()] = ctEntry{f: f, dir: 1}
}

// sortedFlowsByID returns every tracked flow in creation order.
func (p *Plane) sortedFlowsByID() []*flow {
	out := make([]*flow, 0, p.flowCount)
	for _, e := range p.ct {
		if e.dir == 0 {
			out = append(out, e.f)
		}
	}
	sortFlowsByID(out)
	return out
}

// --- filter.Hook ---------------------------------------------------------

// IngressCost prices one frame's trip through the plane: the fixed hook
// cost plus a full traversal of the rule chain (netfilter semantics — a
// frame matching no rule visits every instruction). It is evaluated
// before Take runs and charged at interrupt priority by the host.
func (p *Plane) IngressCost(frame []byte) time.Duration {
	return DefaultPerPacket + time.Duration(p.Chain.Instructions())*DefaultPerInstr
}

// Ingress is Take for a caller that keeps its frame: the plane takes a
// copy, so frame is never written. The plane never hands a rewritten
// frame up the stack, so the frame result is always nil.
func (p *Plane) Ingress(frame []byte) ([]byte, filter.Verdict) {
	return nil, p.Take(append([]byte(nil), frame...))
}

// Take classifies one received frame, which is the plane's: it may
// rewrite it in place and hairpin it back out the wire (absorb), answer
// it (ARP), drop it, or pass it up unwritten.
func (p *Plane) Take(frame []byte) filter.Verdict {
	p.Stats.RxFrames.Inc()

	if v, matched := p.Chain.Eval(frame); matched && v != filter.VerdictPass {
		if v == filter.VerdictDrop {
			p.Stats.Drops.Inc()
		}
		return v
	}

	// Everything but unfragmented TCP/UDP is not the plane's business and
	// passes untouched (fragments take the slow path whole) — except ARP
	// for an address the plane owns.
	v, ok := wire.Dissect(frame)
	if !ok {
		if len(p.arpOwned) > 0 {
			return p.arpIngress(frame)
		}
		return filter.VerdictPass
	}

	if e, hit := p.ct[v.Flow]; hit {
		return p.conntracked(frame, v, e)
	}

	if vip, isVIP := p.vips[vipKey{ip: v.Flow.Dst, port: v.Flow.DstPort}]; isVIP {
		return p.admitVIP(frame, v, vip)
	}
	return filter.VerdictPass
}

// conntracked handles a frame whose tuple is already tracked.
func (p *Plane) conntracked(frame []byte, v wire.View, e ctEntry) filter.Verdict {
	f := e.f
	f.lastSeen = p.cfg.Sim.Now()
	if v.Flow.Proto == wire.ProtoTCP {
		p.updateTCP(f, e.dir, v.Flags)
		if e.dir == 0 {
			if v.Flags&wire.TCPAck != 0 {
				f.clientAck = v.Ack
			}
			if end := v.Seq + uint32(v.End-v.PayAt); int32(end-f.clientEndSeq) > 0 {
				f.clientEndSeq = end
			}
		} else {
			f.sawReply = true
		}
	} else if e.dir == 1 {
		f.sawReply = true
	}

	x := &f.fwd
	if e.dir == 1 {
		x = &f.rev
	}
	return p.forward(frame, v, x)
}

// forward applies x to frame in place and hairpins it back out the
// wire.
func (p *Plane) forward(frame []byte, v wire.View, x *xlate) filter.Verdict {
	if !p.applyXlate(frame, v, x) {
		p.Stats.Drops.Inc()
		return filter.VerdictDrop
	}
	p.Stats.Rewrites.Inc()
	p.Stats.Hairpins.Inc()
	p.cfg.Transmit(frame)
	return filter.VerdictAbsorb
}

// admitVIP begins tracking a new connection to a virtual service: pick
// a backend by consistent hash, allocate a SNAT port, install both
// directions in conntrack, and forward the (rewritten) first frame.
// The forward translation full-NATs toward the backend; the reply key is
// what the backend will answer with, and replies are rewritten back into
// the reverse of what the initiator sent, leaving the way the first
// frame does.
func (p *Plane) admitVIP(frame []byte, v wire.View, vip *VIP) filter.Verdict {
	if p.midStream(v) {
		return filter.VerdictDrop
	}
	bi := vip.pick(v.Flow)
	if bi < 0 {
		p.Stats.LBRefused.Inc()
		p.Stats.Drops.Inc()
		return filter.VerdictDrop
	}
	b := vip.backends[bi]
	snat, ok := p.snat.alloc()
	if !ok {
		p.Stats.SNATFailed.Inc()
		p.Stats.Drops.Inc()
		return filter.VerdictDrop
	}
	p.Stats.LBConns.Inc()
	eh, _ := wire.UnmarshalEth(frame) // cannot fail: Dissect accepted the frame
	tcp := v.Flow.Proto == wire.ProtoTCP
	now := p.cfg.Sim.Now()
	p.nextFlowID++
	f := &flow{
		id:   p.nextFlowID,
		orig: v.Flow,
		fwd: xlate{
			to:     wire.Flow{Src: p.cfg.LocalIP, SrcPort: snat, Dst: b.IP, DstPort: b.Port, Proto: v.Flow.Proto},
			dstMAC: b.MAC,
		},
		rev:       xlate{to: v.Flow.Reverse(), dstMAC: eh.Src},
		created:   now,
		lastSeen:  now,
		clientMAC: eh.Src,
		backend:   bi,
		vip:       vip,
		snat:      snat,
	}
	if tcp {
		f.clientEndSeq = v.Seq + uint32(v.End-v.PayAt) + 1 // +1 for the SYN
	}
	p.insertFlow(f)
	if tcp {
		p.updateTCP(f, 0, v.Flags)
	}
	return p.forward(frame, v, &f.fwd)
}

// midStream counts and reports a TCP segment with no SYN and no flow: a
// connection we already terminated (or never admitted). Not ours to
// deliver.
func (p *Plane) midStream(v wire.View) bool {
	if v.Flow.Proto != wire.ProtoTCP || v.Flags&wire.TCPSyn != 0 {
		return false
	}
	p.Stats.CTInvalid.Inc()
	p.Stats.Drops.Inc()
	return true
}

// arpIngress answers ARP requests for owned VIP addresses with the
// host's own MAC (proxy ARP), so clients on the segment resolve the
// virtual address without any host actually configuring it.
func (p *Plane) arpIngress(frame []byte) filter.Verdict {
	eh, err := wire.UnmarshalEth(frame)
	if err != nil || eh.Type != wire.EtherTypeARP {
		return filter.VerdictPass
	}
	pkt, err := wire.UnmarshalARP(frame[wire.EthHeaderLen:])
	if err != nil || pkt.Op != wire.ARPRequest {
		return filter.VerdictPass
	}
	if p.arpOwned[pkt.TargetIP] == 0 {
		return filter.VerdictPass
	}
	reply := wire.ARPPacket{
		Op:        wire.ARPReply,
		SenderMAC: p.cfg.LocalMAC,
		SenderIP:  pkt.TargetIP,
		TargetMAC: pkt.SenderMAC,
		TargetIP:  pkt.SenderIP,
	}
	out := make([]byte, wire.EthHeaderLen+wire.ARPLen)
	eh = wire.EthHeader{Dst: pkt.SenderMAC, Src: p.cfg.LocalMAC, Type: wire.EtherTypeARP}
	eh.Marshal(out)
	copy(out[wire.EthHeaderLen:], reply.Marshal())
	p.Stats.ARPReplies.Inc()
	p.cfg.Transmit(out)
	return filter.VerdictAbsorb
}

// --- Introspection -------------------------------------------------------

// FlowInfo is one row of the plane's flow table, for psdstat-style
// display. Rows are ordered by the original tuple, so rendered output
// is byte-stable.
type FlowInfo struct {
	Proto   string
	Client  string // initiator address
	Service string // the VIP the initiator targeted
	Backend string // the backend the flow is pinned to
	State   string
	Idle    time.Duration
}

// Flows renders the conntrack table in deterministic order.
func (p *Plane) Flows() []FlowInfo {
	now := p.cfg.Sim.Now()
	flows := p.sortedFlows()
	out := make([]FlowInfo, 0, len(flows))
	for _, f := range flows {
		fi := FlowInfo{
			Proto:   wire.ProtoName(f.orig.Proto),
			Client:  fmt.Sprintf("%v:%d", f.orig.Src, f.orig.SrcPort),
			Service: fmt.Sprintf("%v:%d", f.orig.Dst, f.orig.DstPort),
			Backend: fmt.Sprintf("%v:%d", f.fwd.to.Dst, f.fwd.to.DstPort),
			State:   f.state.String(),
			Idle:    now.Sub(f.lastSeen),
		}
		out = append(out, fi)
	}
	return out
}

// FlowCount returns the number of tracked flows.
func (p *Plane) FlowCount() int { return p.flowCount }

// SNATInUse returns the number of allocated SNAT ports.
func (p *Plane) SNATInUse() int { return p.snat.inUseCount() }

// StateCount returns the number of flows in state s.
func (p *Plane) StateCount(s State) int64 {
	if s < numStates {
		return p.stateCount[s]
	}
	return 0
}
