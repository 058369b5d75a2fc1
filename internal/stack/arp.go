package stack

import (
	"bytes"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// arpEngine implements ARP for stacks that own the network interface
// directly (the in-kernel and server deployments, and the OS server of
// the decomposed architecture). Library stacks do not run ARP: the kernel
// packet filter routes ARP traffic to the OS server, and libraries
// resolve through a caching proxy (§3.3) whose cache is warmed when a
// session migrates in.
//
// Resolution never blocks: an unresolved output is queued on the cache
// entry (as BSD holds a packet in la_hold) and emitted when the reply
// arrives. This matters structurally — protocol input processing emits
// ACKs, RSTs, and ICMP errors, and must not wait for ARP traffic that it
// would itself have to process.
type arpEngine struct {
	st      *Stack
	entries map[wire.IPAddr]*arpEntry
	version int
	// OnChange, when set, fires whenever an entry is added, updated or
	// expired; the OS server uses it to invalidate library caches.
	OnChange func(ip wire.IPAddr)

	// PendingDropped counts output frames dropped because resolution
	// failed or the per-entry queue overflowed; WaitResolve callers are
	// never counted.
	PendingDropped int

	timoIPs []wire.IPAddr // timo scratch, reused across ticks
}

type arpEntry struct {
	mac      wire.MAC
	resolved bool
	ttlTicks int
	retries  int
	// pending holds, in arrival order, the output frames and the
	// WaitResolve callers waiting on this entry; frames counts the
	// former, the only ones arpMaxPendingPkts caps.
	pending []arpHeld
	frames  int
}

// arpHeld is one thing waiting on an unresolved entry: an output frame
// to address and transmit, or a WaitResolve caller to wake.
type arpHeld struct {
	frame []byte
	cv    *sim.Cond
}

const (
	arpEntryTTLTicks  = 40 // 20 s cache lifetime (compressed for simulation)
	arpMaxRetries     = 5
	arpRetryTicks     = 2 // re-request every second
	arpMaxPendingPkts = 8
)

func newARPEngine(st *Stack) *arpEngine {
	return &arpEngine{st: st, entries: make(map[wire.IPAddr]*arpEntry)}
}

// Version increments on every table change (library cache coherence).
func (a *arpEngine) Version() int { return a.version }

// LookupCached returns a resolved entry without generating traffic.
func (a *arpEngine) LookupCached(ip wire.IPAddr) (wire.MAC, bool) {
	if e, ok := a.entries[ip]; ok && e.resolved {
		return e.mac, true
	}
	return wire.MAC{}, false
}

// Insert installs a static/learned mapping directly.
func (a *arpEngine) Insert(ip wire.IPAddr, mac wire.MAC) {
	a.learn(ip, mac, true)
}

// ResolveOrQueue implements Resolver.
func (a *arpEngine) ResolveOrQueue(t *sim.Proc, ip wire.IPAddr, frame []byte) (wire.MAC, bool) {
	mac, e := a.resolve(ip)
	if e == nil {
		return mac, true
	}
	if e.frames >= arpMaxPendingPkts {
		a.PendingDropped++
		return wire.MAC{}, false
	}
	e.frames++
	e.pending = append(e.pending, arpHeld{frame: frame})
	return wire.MAC{}, false
}

// resolve returns ip's hardware address, or else the unresolved entry
// for ip, creating it and sending the first request if there is none.
func (a *arpEngine) resolve(ip wire.IPAddr) (wire.MAC, *arpEntry) {
	if ip.IsBroadcast() {
		return wire.BroadcastMAC, nil
	}
	if ip == a.st.cfg.LocalIP {
		return a.st.cfg.LocalMAC, nil
	}
	e, ok := a.entries[ip]
	if ok && e.resolved {
		return e.mac, nil
	}
	if !ok {
		e = &arpEntry{ttlTicks: arpEntryTTLTicks}
		a.entries[ip] = e
		a.sendRequest(ip)
	}
	return wire.MAC{}, e
}

func (a *arpEngine) sendRequest(ip wire.IPAddr) {
	pkt := wire.ARPPacket{
		Op:        wire.ARPRequest,
		SenderMAC: a.st.cfg.LocalMAC,
		SenderIP:  a.st.cfg.LocalIP,
		TargetIP:  ip,
	}
	a.transmit(wire.BroadcastMAC, pkt)
}

func (a *arpEngine) transmit(dst wire.MAC, pkt wire.ARPPacket) {
	frame := make([]byte, wire.EthHeaderLen+wire.ARPLen)
	eh := wire.EthHeader{Dst: dst, Src: a.st.cfg.LocalMAC, Type: wire.EtherTypeARP}
	eh.Marshal(frame)
	copy(frame[wire.EthHeaderLen:], pkt.Marshal())
	a.st.cfg.Transmit(frame)
}

// learn records a mapping and flushes any output queued on it. force
// creates the entry if absent (BSD creates entries for requests addressed
// to us, so the reply we are about to send has a warm peer entry).
func (a *arpEngine) learn(ip wire.IPAddr, mac wire.MAC, force bool) {
	e, ok := a.entries[ip]
	if !ok {
		if !force {
			return
		}
		e = &arpEntry{}
		a.entries[ip] = e
	}
	changed := !e.resolved || e.mac != mac
	e.mac = mac
	e.resolved = true
	e.ttlTicks = arpEntryTTLTicks
	e.retries = 0
	pending := e.pending
	e.pending, e.frames = nil, 0
	for _, h := range pending {
		if h.cv != nil {
			h.cv.Broadcast()
			continue
		}
		copy(h.frame[0:6], mac[:])
		_ = a.st.cfg.Transmit(h.frame) // a refused frame is lost; upper layers recover
	}
	if changed {
		a.version++
		if a.OnChange != nil {
			a.OnChange(ip)
		}
	}
}

// input processes a received ARP packet: replies to requests for our
// address and completes pending resolutions from replies (and from
// gratuitous information in requests, as BSD does).
func (a *arpEngine) input(t *sim.Proc, body []byte) {
	pkt, err := wire.UnmarshalARP(body)
	if err != nil {
		a.st.Stats.Drops.Inc()
		return
	}
	forUs := pkt.TargetIP == a.st.cfg.LocalIP
	a.learn(pkt.SenderIP, pkt.SenderMAC, forUs)
	if pkt.Op == wire.ARPRequest && forUs {
		reply := wire.ARPPacket{
			Op:        wire.ARPReply,
			SenderMAC: a.st.cfg.LocalMAC,
			SenderIP:  a.st.cfg.LocalIP,
			TargetMAC: pkt.SenderMAC,
			TargetIP:  pkt.SenderIP,
		}
		a.transmit(pkt.SenderMAC, reply)
	}
}

// timo ages cache entries and retries unresolved ones (driven by the slow
// timer). Entries are walked in address order: map order is randomized,
// and the retry broadcasts this loop sends contend for the shared
// medium, so an unordered walk would let two runs with the same seed
// send them in different orders and diverge.
func (a *arpEngine) timo(t *sim.Proc) {
	if len(a.entries) == 0 {
		return
	}
	ips := a.timoIPs[:0]
	for ip := range a.entries {
		ips = append(ips, ip)
	}
	for i := 1; i < len(ips); i++ { // allocation-free, entries are few
		for j := i; j > 0 && bytes.Compare(ips[j][:], ips[j-1][:]) < 0; j-- {
			ips[j], ips[j-1] = ips[j-1], ips[j]
		}
	}
	a.timoIPs = ips
	for _, ip := range ips {
		e := a.entries[ip]
		e.ttlTicks--
		if !e.resolved {
			if e.ttlTicks%arpRetryTicks == 0 {
				e.retries++
				if e.retries > arpMaxRetries {
					// Give up: drop the queued frames; waiters
					// time out on their own.
					a.PendingDropped += e.frames
					delete(a.entries, ip)
					continue
				}
				a.sendRequest(ip)
			}
			continue
		}
		if e.ttlTicks <= 0 {
			delete(a.entries, ip)
			a.version++
			if a.OnChange != nil {
				a.OnChange(ip)
			}
		}
	}
}

// ARP exposes the stack's ARP engine.
func (st *Control) ARP() *arpEngine { return st.arp }

// NextHop returns the link-layer destination for dst: dst itself when
// on-link, the gateway when routed, dst when unroutable (the caller's
// ARP attempt then fails and upper layers recover).
func (st *Stack) NextHop(dst wire.IPAddr) wire.IPAddr {
	if nh, ok := st.cfg.Routes.Lookup(dst); ok {
		return nh
	}
	return dst
}

// WaitResolve resolves ip, blocking the calling thread up to timeout.
// It is safe only on threads that do not process this stack's input
// (the OS server's RPC workers use it to answer library proxy_arp calls;
// the ARP reply arrives on the server's separate input thread). The
// caller waits in the entry's queue beside its frames, taking no frame
// slot, and is woken in queue order when the address is learned.
func (a *arpEngine) WaitResolve(t *sim.Proc, ip wire.IPAddr, timeout time.Duration) (wire.MAC, bool) {
	mac, e := a.resolve(ip)
	if e == nil {
		return mac, true
	}
	cv := &sim.Cond{}
	e.pending = append(e.pending, arpHeld{cv: cv})
	cv.WaitTimeout(t, timeout)
	return a.LookupCached(ip)
}
