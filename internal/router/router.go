// Package router implements IP routers for multi-subnet simulated
// networks: a router host attaches one port to each Ethernet segment it
// joins, forwards IPv4 packets between them via the same longest-prefix
// routing table the protocol stacks use (stack.RouteTable with per-route
// egress interfaces), decrements TTL, answers and originates ARP, and
// emits the ICMP errors internet routers owe their sources — time
// exceeded when a TTL dies, destination unreachable when no route
// matches.
//
// Each egress port has a finite queue with RED-style early drop: the
// queue occupancy (frames handed to the segment that have not yet
// cleared the wire) is averaged with an EWMA, packets are admitted below
// the low threshold, dropped probabilistically between the thresholds,
// and dropped always above the high one. The drop stream is seeded from
// the simulation, so routed topologies stay deterministic.
package router

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stack"
	"repro/internal/wire"
)

// A port's egress queue. The capacity is the hard queue limit (tail
// drop); the RED thresholds on the EWMA queue length sit at a quarter
// and three quarters of it.
const (
	queueCapacity = 32   // frames
	redMaxP       = 0.1  // drop probability as the average reaches the high threshold
	redWeight     = 0.25 // EWMA weight of the average queue length
)

// Stats counts router activity. The fields are metrics counters so a
// registry can bind to the same storage tests read.
type Stats struct {
	Forwarded    metrics.Counter // packets forwarded between ports
	Delivered    metrics.Counter // packets addressed to the router itself (ping)
	TTLExpired   metrics.Counter // dropped for TTL, ICMP time-exceeded sent
	NoRoute      metrics.Counter // dropped for no route, ICMP unreachable sent
	REDDrops     metrics.Counter // early-dropped by RED
	TailDrops    metrics.Counter // dropped at full queue
	ARPDrops     metrics.Counter // dropped waiting for ARP resolution
	ICMPSent     metrics.Counter // ICMP errors + echo replies originated
	HeaderErrors metrics.Counter // unparseable / bad-checksum IP headers
	Broadcasts   metrics.Counter // link- or IP-broadcast packets not forwarded, no ICMP (RFC 1812 §5.3.4, §4.3.2.7)
}

// Router forwards IP packets between the segments its ports join.
type Router struct {
	sim   *sim.Sim
	name  string
	rt    *stack.RouteTable
	ports []*Port
	rng   *rand.Rand

	Stats Stats
}

// New creates a router with no ports. The drop stream is derived from
// the simulation seed and the router's name, so routers never perturb
// the shared random stream other layers draw from.
func New(s *sim.Sim, name string) *Router {
	var h int64
	for _, c := range name {
		h = h*131 + int64(c)
	}
	r := &Router{
		sim:  s,
		name: name,
		rt:   stack.NewRouteTable(),
		rng:  rand.New(rand.NewSource(s.Seed() ^ h)),
	}
	// Expire stale unresolved ARP state once a virtual second.
	s.Every(arpSweepInterval, r.arpSweep)
	return r
}

// Name returns the router's name.
func (r *Router) Name() string { return r.name }

// Port is one router interface on a segment.
type Port struct {
	r         *Router
	index     int
	nic       *simnet.NIC
	ip        wire.IPAddr
	prefixLen int
	capacity  int // egress queue limit in frames

	qlen int     // frames transmitted but not yet clear of the wire
	avg  float64 // RED EWMA of qlen, updated per enqueue

	arp     map[wire.IPAddr]*arpState
	MaxQLen int // high-water mark, for tests and reports
}

type arpState struct {
	mac      wire.MAC
	resolved bool
	ageTicks int      // sweeps since creation, for unresolved expiry
	pending  [][]byte // frames awaiting resolution (bounded)
}

const (
	arpSweepInterval  = time.Second
	arpMaxPending     = 8
	arpUnresolvedTTL  = 5 // sweeps before an unresolved entry is dropped
	icmpErrorHopLimit = wire.DefaultTTL
)

// Attach joins the router to a segment with the given port IP and subnet
// prefix length, installing the subnet's on-link route. The port's link
// name — visible to the fault injector — is "<router>.<name>".
func (r *Router) Attach(seg *simnet.Segment, name string, mac wire.MAC, ip wire.IPAddr, prefixLen int) *Port {
	p := &Port{
		r:         r,
		index:     len(r.ports),
		ip:        ip,
		prefixLen: prefixLen,
		capacity:  queueCapacity,
		arp:       make(map[wire.IPAddr]*arpState),
	}
	p.nic = seg.AttachOn(r.sim, r.name+"."+name, mac)
	p.nic.Rx = func(f simnet.Frame) { r.rx(p, f) }
	p.nic.TxDone = func(simnet.Frame) {
		if p.qlen > 0 {
			p.qlen--
		}
	}
	r.ports = append(r.ports, p)
	r.rt.AddIf(ip.Mask(prefixLen), prefixLen, wire.IPAddr{}, true, p.index)
	return p
}

// AddRoute installs a static route through gw, which must be on-link for
// one of the router's ports.
func (r *Router) AddRoute(dest wire.IPAddr, prefixLen int, gw wire.IPAddr) error {
	for _, p := range r.ports {
		if gw.Mask(p.prefixLen) == p.ip.Mask(p.prefixLen) {
			r.rt.AddIf(dest, prefixLen, gw, false, p.index)
			return nil
		}
	}
	return fmt.Errorf("router %s: gateway %v is not on any attached subnet", r.name, gw)
}

// Ports returns the router's ports in attach order.
func (r *Router) Ports() []*Port { return r.ports }

// IP returns the port's address.
func (p *Port) IP() wire.IPAddr { return p.ip }

// NIC exposes the port's station, so topology code can bind trunk
// per-direction stats and trace lanes.
func (p *Port) NIC() *simnet.NIC { return p.nic }

// Sim returns the event queue (shard) the router runs on.
func (r *Router) Sim() *sim.Sim { return r.sim }

// LinkName returns the port's fault-injector link name.
func (p *Port) LinkName() string { return p.nic.Name() }

// BindMetrics registers the router's counters under a scope, typically
// "router.<name>". Ports bind separately (Port.BindMetrics) so a
// topology builder can attach them after the router-level binding.
func (r *Router) BindMetrics(sc *metrics.Scope) {
	if sc == nil {
		return
	}
	sc.Counter("forwarded", &r.Stats.Forwarded)
	sc.Counter("delivered", &r.Stats.Delivered)
	sc.Counter("ttl_expired", &r.Stats.TTLExpired)
	sc.Counter("no_route", &r.Stats.NoRoute)
	sc.Counter("red_drops", &r.Stats.REDDrops)
	sc.Counter("tail_drops", &r.Stats.TailDrops)
	sc.Counter("arp_drops", &r.Stats.ARPDrops)
	sc.Counter("icmp_sent", &r.Stats.ICMPSent)
	sc.Counter("header_errors", &r.Stats.HeaderErrors)
	sc.Counter("broadcast_drops", &r.Stats.Broadcasts)
}

// BindMetrics registers the port's NIC counters and queue gauges under a
// scope, typically "router.<name>.port.<link>".
func (p *Port) BindMetrics(ps *metrics.Scope) {
	if ps == nil {
		return
	}
	p.nic.BindMetrics(ps)
	ps.GaugeFunc("queue", func() int64 { return int64(p.qlen) })
	ps.GaugeFunc("queue_max", func() int64 { return int64(p.MaxQLen) })
}

// rx handles one frame arriving on a port; it runs in event context and
// must not block (forwarding never waits — at worst it queues on ARP).
func (r *Router) rx(p *Port, f simnet.Frame) {
	eh, err := wire.UnmarshalEth(f.Data)
	if err != nil {
		r.Stats.HeaderErrors.Inc()
		return
	}
	switch eh.Type {
	case wire.EtherTypeARP:
		r.arpInput(p, f.Data[wire.EthHeaderLen:])
	case wire.EtherTypeIPv4:
		r.ipInput(p, f, eh.Dst.IsBroadcast())
	}
}

// ipInput validates, delivers-or-forwards the IP packet in one frame;
// linkBcast reports that the frame was sent to the broadcast MAC.
func (r *Router) ipInput(p *Port, f simnet.Frame, linkBcast bool) {
	in := f.Data
	v, ok := wire.DissectIP(in)
	if !ok {
		r.Stats.HeaderErrors.Inc()
		return
	}
	// ICMP speaks the codec's header; unmarshalling it also verifies the
	// header checksum.
	h, _, err := wire.UnmarshalIPv4(in[v.IPAt:v.End])
	if err != nil {
		r.Stats.HeaderErrors.Inc()
		return
	}
	body := in[v.TPAt:v.End]

	// Addressed to the router itself: answer pings, swallow the rest.
	for _, lp := range r.ports {
		if h.Dst == lp.ip {
			r.Stats.Delivered.Inc()
			r.localInput(lp, h, body)
			return
		}
	}

	// A broadcast is never forwarded, and never earns an ICMP error.
	if linkBcast || h.Dst.IsBroadcast() {
		r.Stats.Broadcasts.Inc()
		return
	}

	// TTL check happens before routing: a packet that arrives with one
	// hop left dies here, and its source learns why.
	if h.TTL <= 1 {
		r.Stats.TTLExpired.Inc()
		r.icmpError(p, wire.ICMPTimeExceeded, wire.ICMPCodeTTLExceeded, h, body)
		return
	}

	nextHop, ifidx, ok := r.rt.LookupIf(h.Dst)
	if !ok || ifidx >= len(r.ports) {
		r.Stats.NoRoute.Inc()
		r.icmpError(p, wire.ICMPDestUnreachable, wire.ICMPCodeNetUnreachable, h, body)
		return
	}
	out := r.ports[ifidx]

	if !r.admit(out) {
		return // counted inside admit
	}

	// An owned frame is forwarded in place, as BSD's ip_forward reuses
	// the received mbuf; a read-only one is copied first. The link
	// addresses are transmit's to fill in.
	frame := in[:v.End]
	if !f.Owned {
		frame = make([]byte, v.End)
		copy(frame[v.IPAt:], in[v.IPAt:v.End])
	}
	v.SetTTL(frame, v.TTL-1)

	r.Stats.Forwarded.Inc()
	r.transmit(out, nextHop, frame)
}

// admit runs the egress queue's RED/tail admission test, counting any
// drop it decides on.
func (r *Router) admit(out *Port) bool {
	redMin, redMax := out.capacity/4, 3*out.capacity/4
	out.avg += redWeight * (float64(out.qlen) - out.avg)
	switch {
	case out.qlen >= out.capacity:
		r.Stats.TailDrops.Inc()
		return false
	case out.avg < float64(redMin):
		return true
	case out.avg >= float64(redMax):
		r.Stats.REDDrops.Inc()
		return false
	default:
		pb := redMaxP * (out.avg - float64(redMin)) / float64(redMax-redMin)
		if r.rng.Float64() < pb {
			r.Stats.REDDrops.Inc()
			return false
		}
		return true
	}
}

// transmit fills in link addresses and puts the frame on the port's
// wire, queueing on ARP when the next hop is unresolved.
func (r *Router) transmit(out *Port, nextHop wire.IPAddr, frame []byte) {
	eh := wire.EthHeader{Src: out.nic.MAC(), Type: wire.EtherTypeIPv4}
	if nextHop.IsBroadcast() {
		eh.Dst = wire.BroadcastMAC
		eh.Marshal(frame[:wire.EthHeaderLen])
		r.send(out, frame)
		return
	}
	st, ok := out.arp[nextHop]
	if ok && st.resolved {
		eh.Dst = st.mac
		eh.Marshal(frame[:wire.EthHeaderLen])
		r.send(out, frame)
		return
	}
	if st == nil {
		st = &arpState{}
		out.arp[nextHop] = st
		r.arpRequest(out, nextHop)
	}
	if len(st.pending) >= arpMaxPending {
		r.Stats.ARPDrops.Inc()
		return
	}
	eh.Marshal(frame[:wire.EthHeaderLen]) // dst filled on resolution
	st.pending = append(st.pending, frame)
}

func (r *Router) send(out *Port, frame []byte) {
	out.qlen++
	if out.qlen > out.MaxQLen {
		out.MaxQLen = out.qlen
	}
	_ = out.nic.Transmit(frame)
}

// localInput handles packets addressed to a port IP: ICMP echo requests
// get replies; everything else is silently absorbed (the router runs no
// transports).
func (r *Router) localInput(p *Port, h wire.IPv4Header, body []byte) {
	if h.Proto != wire.ProtoICMP {
		return
	}
	ih, payload, err := wire.UnmarshalICMP(body)
	if err != nil || ih.Type != wire.ICMPEchoRequest {
		return
	}
	reply := wire.ICMPHeader{Type: wire.ICMPEchoReply, ID: ih.ID, Seq: ih.Seq}
	r.Stats.ICMPSent.Inc()
	r.output(p.ip, h.Src, reply.Marshal(payload))
}

// icmpError reports a forwarding failure back to the packet's source,
// from the address of the port it arrived on. Errors are never sent
// about ICMP errors (RFC 1122).
func (r *Router) icmpError(in *Port, typ, code uint8, orig wire.IPv4Header, origBody []byte) {
	if orig.Proto == wire.ProtoICMP && len(origBody) > 0 && wire.ICMPIsError(origBody[0]) {
		return
	}
	if orig.IsFragment() && orig.FragOff != 0 {
		return // only the first fragment earns an error
	}
	msg := wire.ICMPHeader{Type: typ, Code: code}
	r.Stats.ICMPSent.Inc()
	r.output(in.ip, orig.Src, msg.Marshal(wire.ICMPErrorPayload(orig, origBody)))
}

// output originates an IP packet from the router (ICMP only) and routes
// it like any other traffic.
func (r *Router) output(src, dst wire.IPAddr, body []byte) {
	nextHop, ifidx, ok := r.rt.LookupIf(dst)
	if !ok || ifidx >= len(r.ports) {
		return // nowhere to send the error; drop silently
	}
	out := r.ports[ifidx]
	if !r.admit(out) {
		return
	}
	h := wire.IPv4Header{
		TotalLen: uint16(wire.IPv4HeaderLen + len(body)),
		TTL:      icmpErrorHopLimit,
		Proto:    wire.ProtoICMP,
		Src:      src,
		Dst:      dst,
	}
	frame := make([]byte, wire.EthHeaderLen+wire.IPv4HeaderLen+len(body))
	h.Marshal(frame[wire.EthHeaderLen : wire.EthHeaderLen+wire.IPv4HeaderLen])
	copy(frame[wire.EthHeaderLen+wire.IPv4HeaderLen:], body)
	r.transmit(out, nextHop, frame)
}

// --- ARP ---

func (r *Router) arpRequest(out *Port, ip wire.IPAddr) {
	pkt := wire.ARPPacket{
		Op:        wire.ARPRequest,
		SenderMAC: out.nic.MAC(),
		SenderIP:  out.ip,
		TargetIP:  ip,
	}
	r.arpTransmit(out, wire.BroadcastMAC, pkt)
}

func (r *Router) arpTransmit(out *Port, dst wire.MAC, pkt wire.ARPPacket) {
	frame := make([]byte, wire.EthHeaderLen+wire.ARPLen)
	eh := wire.EthHeader{Dst: dst, Src: out.nic.MAC(), Type: wire.EtherTypeARP}
	eh.Marshal(frame[:wire.EthHeaderLen])
	copy(frame[wire.EthHeaderLen:], pkt.Marshal())
	// ARP control traffic bypasses the data queue's RED test but still
	// occupies the wire.
	r.send(out, frame)
}

func (r *Router) arpInput(p *Port, pkt []byte) {
	ap, err := wire.UnmarshalARP(pkt)
	if err != nil {
		return
	}
	// Learn the sender either way; flush anything waiting on it.
	r.arpLearn(p, ap.SenderIP, ap.SenderMAC)
	if ap.Op == wire.ARPRequest && ap.TargetIP == p.ip {
		reply := wire.ARPPacket{
			Op:        wire.ARPReply,
			SenderMAC: p.nic.MAC(),
			SenderIP:  p.ip,
			TargetMAC: ap.SenderMAC,
			TargetIP:  ap.SenderIP,
		}
		r.arpTransmit(p, ap.SenderMAC, reply)
	}
}

func (r *Router) arpLearn(p *Port, ip wire.IPAddr, mac wire.MAC) {
	st, ok := p.arp[ip]
	if !ok {
		st = &arpState{}
		p.arp[ip] = st
	}
	st.mac = mac
	st.resolved = true
	st.ageTicks = 0
	if len(st.pending) > 0 {
		pending := st.pending
		st.pending = nil
		for _, frame := range pending {
			eh := wire.EthHeader{Dst: mac, Src: p.nic.MAC(), Type: wire.EtherTypeIPv4}
			eh.Marshal(frame[:wire.EthHeaderLen])
			r.send(p, frame)
		}
	}
}

// arpSweep expires unresolved entries, dropping their pending frames.
// The walk is in map order: an entry's fate depends only on its own age,
// and expiry only deletes it and counts, so no order is observable.
func (r *Router) arpSweep() {
	for _, p := range r.ports {
		for ip, st := range p.arp {
			if st.resolved {
				continue
			}
			st.ageTicks++
			if st.ageTicks >= arpUnresolvedTTL {
				r.Stats.ARPDrops.Add(uint64(len(st.pending)))
				delete(p.arp, ip)
			}
		}
	}
}
