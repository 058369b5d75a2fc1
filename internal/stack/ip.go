package stack

import (
	"errors"
	"sort"
	"time"

	"repro/internal/costs"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Route is one routing table entry.
type Route struct {
	Dest      wire.IPAddr
	PrefixLen int
	Gateway   wire.IPAddr // next hop; ignored when OnLink
	OnLink    bool        // destination is directly reachable
	Ifindex   int         // egress interface for multi-homed owners (routers)
}

// RouteTable is a longest-prefix-match IPv4 routing table. In the
// decomposed architecture the authoritative table lives in the
// operating-system server and libraries cache entries from it (§3.3).
// Router hosts reuse the same table, distinguishing egress interfaces
// through Ifindex.
type RouteTable struct {
	routes  []Route
	version int
}

// NewRouteTable returns an empty table.
func NewRouteTable() *RouteTable { return &RouteTable{} }

// Add installs a route and bumps the table version (which invalidates
// library caches). Hosts have a single interface, so the ifindex is 0.
func (rt *RouteTable) Add(dest wire.IPAddr, prefixLen int, gw wire.IPAddr, onLink bool) {
	rt.AddIf(dest, prefixLen, gw, onLink, 0)
}

// AddIf is Add with an explicit egress interface index (routers).
func (rt *RouteTable) AddIf(dest wire.IPAddr, prefixLen int, gw wire.IPAddr, onLink bool, ifindex int) {
	rt.routes = append(rt.routes, Route{Dest: dest.Mask(prefixLen), PrefixLen: prefixLen, Gateway: gw, OnLink: onLink, Ifindex: ifindex})
	sort.SliceStable(rt.routes, func(i, j int) bool {
		return rt.routes[i].PrefixLen > rt.routes[j].PrefixLen
	})
	rt.version++
}

// Version returns the table's modification counter.
func (rt *RouteTable) Version() int { return rt.version }

// Lookup returns the next hop for dst: dst itself for on-link routes, the
// gateway otherwise.
func (rt *RouteTable) Lookup(dst wire.IPAddr) (nextHop wire.IPAddr, ok bool) {
	nextHop, _, ok = rt.LookupIf(dst)
	return nextHop, ok
}

// LookupIf is Lookup plus the matched route's egress interface index.
// Ties between equal-length prefixes go to the earlier Add (stable sort).
func (rt *RouteTable) LookupIf(dst wire.IPAddr) (nextHop wire.IPAddr, ifindex int, ok bool) {
	for _, r := range rt.routes {
		if dst.Mask(r.PrefixLen) == r.Dest {
			if r.OnLink {
				return dst, r.Ifindex, true
			}
			return r.Gateway, r.Ifindex, true
		}
	}
	return wire.IPAddr{}, 0, false
}

// Entries returns a copy of the table's entries in match-preference order
// (longest prefix first), for diagnostics and tests.
func (rt *RouteTable) Entries() []Route {
	out := make([]Route, len(rt.routes))
	copy(out, rt.routes)
	return out
}

// ipOutput encapsulates a transport segment and transmits it, fragmenting
// when it exceeds the MTU (ip_output). n is the transport payload size
// for cost accounting.
//
// The call owns seg: its segments are recycled before ipOutput returns,
// so callers may immediately reuse a scratch chain. ckOff is the offset
// of the transport checksum field within seg (wire.TCPChecksumOffset or
// wire.UDPChecksumOffset); the field must be marshaled as zero, and the
// checksum — pseudo-header included — is computed during the fused copy
// into the link frame. ckOff < 0 means seg is already internally
// checksummed (ICMP, raw).
func (st *Stack) ipOutput(t *sim.Proc, tcp bool, proto uint8, dst wire.IPAddr, seg *mbuf.Chain, n, ckOff int) error {
	st.charge(t, tcp, costs.CompIPOutput, n)
	st.Stats.IPOut.Inc()

	nextHop, ok := st.cfg.Routes.Lookup(dst)
	if !ok {
		seg.Release()
		return socketapi.ErrHostUnreach
	}

	total := wire.IPv4HeaderLen + seg.Len()
	// A TSO super-segment exceeds the MTU on purpose: it leaves as one
	// oversized frame for the NIC engine to slice, bypassing IP
	// fragmentation entirely.
	if total <= wire.EthMTU || (tcp && st.cfg.Offload) {
		return st.emitIP(t, tcp, wire.IPv4Header{
			TotalLen: uint16(total),
			ID:       st.nextIPID(),
			TTL:      wire.DefaultTTL,
			Proto:    proto,
			Src:      st.cfg.LocalIP,
			Dst:      dst,
		}, nextHop, seg, n, ckOff)
	}

	// Fragment (slow path). The transport checksum covers the whole
	// datagram but only fragment zero carries the field, so it is
	// computed over the full chain and patched in before slicing.
	if ckOff >= 0 {
		st.patchTransportChecksum(&seg, proto, dst, ckOff)
	}

	// Fragment data lengths must be multiples of 8 bytes.
	id := st.nextIPID()
	maxData := (wire.EthMTU - wire.IPv4HeaderLen) &^ 7
	off := 0
	remaining := seg.Len()
	for remaining > 0 {
		take := maxData
		more := true
		if take >= remaining {
			take = remaining
			more = false
		}
		frag := seg.CopyRegion(off, take)
		h := wire.IPv4Header{
			TotalLen: uint16(wire.IPv4HeaderLen + take),
			ID:       id,
			TTL:      wire.DefaultTTL,
			Proto:    proto,
			Src:      st.cfg.LocalIP,
			Dst:      dst,
			FragOff:  uint16(off / 8),
		}
		if more {
			h.Flags = wire.IPFlagMF
		}
		st.Stats.IPFragsOut.Inc()
		if err := st.emitIP(t, tcp, h, nextHop, frag, take, -1); err != nil {
			seg.Release()
			return err
		}
		off += take
		remaining -= take
	}
	seg.Release()
	return nil
}

// patchTransportChecksum computes the transport checksum (pseudo-header
// plus the full segment) and writes it at ckOff within the chain,
// replacing *seg with a flat copy if the header bytes are shared.
func (st *Stack) patchTransportChecksum(seg **mbuf.Chain, proto uint8, dst wire.IPAddr, ckOff int) {
	st.Stats.SwChecksumBytes.Add(uint64((*seg).Len()))
	var ck wire.Checksummer
	ck.PseudoHeader(st.cfg.LocalIP, dst, proto, uint16((*seg).Len()))
	ck.AddChain(*seg)
	sum := ck.Sum()
	if proto == wire.ProtoUDP && sum == 0 {
		sum = 0xffff
	}
	hb := (*seg).Writer(ckOff + 2)
	if hb == nil {
		// Header bytes shared or fragmented across segments: take a
		// private flat copy (cold path; transport headers are normally
		// a single freshly prepended segment).
		flat := mbuf.FromBytesCopy((*seg).Bytes())
		(*seg).Release()
		*seg = flat
		hb = (*seg).Writer(ckOff + 2)
	}
	hb[ckOff] = byte(sum >> 8)
	hb[ckOff+1] = byte(sum)
}

// emitIP builds the link frame — Ethernet header, IP header, and a fused
// copy+checksum pass over the transport chain — charges the device-output
// cost, and transmits: immediately when the next hop's hardware address
// is known, otherwise the resolver takes the frame, fills in its
// destination and transmits it when ARP resolution completes (this path
// never blocks). The payload chain is consumed.
//
// The frame's storage is lent by mbuf's pools (mbuf.Frame), and every
// byte of it is written here. The stack gives the frame up at transmit;
// a queued one is written once more, its destination address, before.
// Whoever owns the frame last hands the storage back: a receiving stack
// when its Input returns or when the queue that kept the bytes lets go
// of them (see rxFrame), the offload engine for a super-segment it
// sliced. A frame shared by several receivers has no owner and is
// garbage collected.
func (st *Stack) emitIP(t *sim.Proc, tcp bool, h wire.IPv4Header, nextHop wire.IPAddr, payload *mbuf.Chain, n, ckOff int) error {
	st.charge(t, tcp, costs.CompEtherOutput, n)
	frame := mbuf.Frame(wire.EthHeaderLen + wire.IPv4HeaderLen + payload.Len())
	eh := wire.EthHeader{Src: st.cfg.LocalMAC, Type: wire.EtherTypeIPv4}
	eh.Marshal(frame[:wire.EthHeaderLen])
	h.Marshal(frame[wire.EthHeaderLen : wire.EthHeaderLen+wire.IPv4HeaderLen])

	// One pass copies the transport segment into the frame and folds it
	// into the checksum (the paper's integrated copy/checksum). With
	// checksum offload the copy still happens but the field is left
	// zero for the NIC engine to fill, and no software-checksum bytes
	// are accounted.
	sw := ckOff >= 0 && !st.cfg.Offload
	var ck wire.Checksummer
	if sw {
		ck.PseudoHeader(h.Src, h.Dst, h.Proto, uint16(payload.Len()))
	}
	ck.CopyAndSum(frame[wire.EthHeaderLen+wire.IPv4HeaderLen:], payload)
	if sw {
		st.Stats.SwChecksumBytes.Add(uint64(int(h.TotalLen) - wire.IPv4HeaderLen))
		sum := ck.Sum()
		if h.Proto == wire.ProtoUDP && sum == 0 {
			sum = 0xffff
		}
		at := wire.EthHeaderLen + wire.IPv4HeaderLen + ckOff
		frame[at] = byte(sum >> 8)
		frame[at+1] = byte(sum)
	}
	payload.Release()

	if mac, ok := st.resolver.ResolveOrQueue(t, nextHop, frame); ok {
		copy(frame[0:6], mac[:])
		return st.cfg.Transmit(frame)
	}
	return nil // queued pending resolution (or dropped; upper layers recover)
}

// ipInput validates an incoming IP packet and dispatches it to the
// transport protocols (ip_input).
func (st *Stack) ipInput(t *sim.Proc, eh wire.EthHeader, pkt []byte) {
	h, hlen, err := wire.UnmarshalIPv4(pkt)
	if err != nil {
		if errors.Is(err, wire.ErrChecksum) {
			st.Stats.IPChecksumErrors.Inc()
			if st.traceOn() {
				st.traceEmit(trace.EvChecksumDrop, "", "ip", int64(len(pkt)), 0, 0)
			}
		}
		st.Stats.Drops.Inc()
		return
	}
	if int(h.TotalLen) > len(pkt) {
		st.Stats.Drops.Inc()
		return
	}
	pkt = pkt[:h.TotalLen]
	if h.Dst != st.cfg.LocalIP && !h.Dst.IsBroadcast() {
		st.Stats.Drops.Inc() // not for us (no forwarding in this stack)
		return
	}
	st.Stats.IPIn.Inc()
	body := pkt[hlen:]

	tcp := h.Proto == wire.ProtoTCP
	st.charge(t, tcp, costs.CompIPIntr, len(body))

	// With checksum offload the NIC engine has already verified (and
	// dropped bad) unfragmented TCP/UDP segments — but the engine passes
	// fragments through untouched, so reassembled datagrams still get
	// the software pass.
	st.rxVerified = st.cfg.Offload

	if h.IsFragment() {
		st.rxVerified = false
		// The reassembler keeps the fragment by alias, so the frame is
		// never handed back; a completed datagram is fresh storage.
		st.rx.owned = false
		full, ok := st.reasm.Add(h, body)
		if !ok {
			return
		}
		st.Stats.IPReasmOK.Inc()
		body = full
		h.FragOff = 0
		h.Flags = 0
	}

	switch h.Proto {
	case wire.ProtoTCP:
		st.tcpInput(t, h, body)
	case wire.ProtoUDP:
		st.udpInput(t, h, body)
	case wire.ProtoICMP:
		st.icmpInput(t, h, body)
	default:
		st.Stats.Drops.Inc()
	}
}

// rxFrame is the frame an Input call is processing. An owned frame
// (simnet.Frame.Owned) is the call's to hand back: a queue that keeps
// received bytes takes a reference to their region of it, and when the
// call returns its own reference drops, so a pure ACK's storage is back
// in mbuf's pools before the next frame arrives and a data frame's
// storage returns when the application consumes the bytes. Bytes of a
// frame the call does not own are kept by alias, as nobody writes or
// frees such a frame.
type rxFrame struct {
	frame []byte
	owned bool
	held  mbuf.Chain // the owned frame, once a queue has taken a region of it
}

// keep appends data, a slice of the frame (or of storage nobody writes
// when the frame is not owned), onto dst.
func (r *rxFrame) keep(dst *mbuf.Chain, data []byte) {
	if !r.owned {
		dst.AppendAlias(data)
		return
	}
	if r.held.Len() == 0 {
		r.held.Adopt(r.frame)
	}
	r.held.CopyRegionInto(dst, cap(r.frame)-cap(data), len(data))
}

// done drops the call's reference to an owned frame.
func (r *rxFrame) done() {
	if r.held.Len() > 0 {
		r.held.Release()
	} else if r.owned {
		mbuf.Free(r.frame)
	}
	r.frame, r.owned = nil, false
}

// --- Reassembly ---

type reasmKey struct {
	src, dst wire.IPAddr
	proto    uint8
	id       uint16
}

type reasmEntry struct {
	frags   []ipFrag
	gotLast bool
	total   int
	ttlTick int // slow-timer ticks until the entry expires
}

type ipFrag struct {
	off  int
	data []byte // an alias of the fragment's frame, which is never handed back
}

const reasmTTLTicks = 30 // 15 s, BSD's IPFRAGTTL

// Reassembler collects IP fragments into datagrams (ip_reass). A stack
// has one for its own input; a deployment that has to reassemble ahead
// of the stack (the OS server, for migrated sessions) gets another from
// NewReassembler.
type Reassembler struct {
	held map[reasmKey]*reasmEntry
}

// NewReassembler returns an empty table aged by this stack's slow timer,
// its expiries counted in Stats.IPReasmTimeout.
func (st *Stack) NewReassembler() *Reassembler {
	r := &Reassembler{held: make(map[reasmKey]*reasmEntry)}
	st.reasms = append(st.reasms, r)
	return r
}

func keyOf(h wire.IPv4Header) reasmKey {
	return reasmKey{src: h.Src, dst: h.Dst, proto: h.Proto, id: h.ID}
}

// Holds reports whether fragments of h's datagram are being collected.
func (r *Reassembler) Holds(h wire.IPv4Header) bool { return r.held[keyOf(h)] != nil }

// Add files one fragment; when it completes its datagram Add returns the
// full transport payload, in fresh storage, and forgets the datagram.
// The table keeps body by alias: its frame must never be handed back to
// mbuf's pools, nor written.
func (r *Reassembler) Add(h wire.IPv4Header, body []byte) ([]byte, bool) {
	key := keyOf(h)
	e := r.held[key]
	if e == nil {
		e = &reasmEntry{ttlTick: reasmTTLTicks}
		r.held[key] = e
	}
	off := int(h.FragOff) * 8
	e.frags = append(e.frags, ipFrag{off: off, data: body})
	if !h.MoreFragments() {
		e.gotLast = true
		e.total = off + len(body)
	}
	if !e.gotLast {
		return nil, false
	}
	// Check completeness.
	sort.Slice(e.frags, func(i, j int) bool { return e.frags[i].off < e.frags[j].off })
	full := make([]byte, e.total)
	covered := 0
	for _, f := range e.frags {
		if f.off > covered {
			return nil, false // hole remains
		}
		end := f.off + len(f.data)
		if end > covered {
			copy(full[f.off:end], f.data)
			covered = end
		}
	}
	if covered < e.total {
		return nil, false
	}
	delete(r.held, key)
	return full, true
}

// tick ages every datagram by one slow-timer tick and returns how many
// expired. The walk is in map order: an entry's fate depends only on its
// own age, and expiry only deletes it, so no order is observable.
func (r *Reassembler) tick() (expired int) {
	for k, e := range r.held {
		e.ttlTick--
		if e.ttlTick <= 0 {
			delete(r.held, k)
			expired++
		}
	}
	return expired
}

// --- ICMP ---

// icmpInput handles ICMP messages: echo requests are answered; errors are
// mapped onto the sockets they concern (icmp_input + PRC_* upcalls).
func (st *Stack) icmpInput(t *sim.Proc, h wire.IPv4Header, body []byte) {
	st.Stats.ICMPIn.Inc()
	ih, payload, err := wire.UnmarshalICMP(body)
	if err != nil {
		if errors.Is(err, wire.ErrChecksum) {
			st.Stats.ICMPChecksumErrors.Inc()
			if st.traceOn() {
				st.traceEmit(trace.EvChecksumDrop, "", "icmp", int64(len(body)), 0, 0)
			}
		}
		st.Stats.Drops.Inc()
		return
	}
	switch ih.Type {
	case wire.ICMPEchoRequest:
		reply := wire.ICMPHeader{Type: wire.ICMPEchoReply, ID: ih.ID, Seq: ih.Seq}
		st.Stats.ICMPOut.Inc()
		st.ipOutput(t, false, wire.ProtoICMP, h.Src, mbuf.FromBytesCopy(reply.Marshal(payload)), len(payload), -1)
	case wire.ICMPEchoReply:
		if cv, ok := st.icmpEcho[ih.ID]; ok {
			cv.Broadcast()
		}
	case wire.ICMPDestUnreachable:
		// The payload holds the offending datagram's IP header + 8 bytes:
		// enough to find the socket and deliver ECONNREFUSED, which is
		// how BSD surfaces UDP port unreachables.
		oh, ohl, err := wire.UnmarshalIPv4(payload)
		if err != nil || len(payload) < ohl+8 {
			return
		}
		tp := payload[ohl:]
		sport := uint16(tp[0])<<8 | uint16(tp[1])
		dport := uint16(tp[2])<<8 | uint16(tp[3])
		local := Addr{IP: oh.Src, Port: sport}
		remote := Addr{IP: oh.Dst, Port: dport}
		if s := st.lookup(oh.Proto, local, remote); s != nil && !s.remote.IsZero() {
			s.err = socketapi.ErrConnRefused
			s.sorwakeup(t, 0)
			s.sowwakeup(t, 0)
		}
	}
}

// icmpSendUnreachable reports an undeliverable datagram back to its
// sender (icmp_error).
func (st *Stack) icmpSendUnreachable(t *sim.Proc, code uint8, orig wire.IPv4Header, origBody []byte) {
	// Quote the original IP header plus the first 8 payload bytes.
	quote := wire.ICMPErrorPayload(orig, origBody)
	msg := wire.ICMPHeader{Type: wire.ICMPDestUnreachable, Code: code}
	st.Stats.ICMPOut.Inc()
	st.ipOutput(t, false, wire.ProtoICMP, orig.Src, mbuf.FromBytesCopy(msg.Marshal(quote)), 0, -1)
}

// Ping sends an ICMP echo request and waits up to timeout for the reply,
// reporting success. It exists for diagnostics and tests of the ICMP
// machinery.
func (st *Stack) Ping(t *sim.Proc, dst wire.IPAddr, id uint16, timeoutTicks int) bool {
	st.lock(t)
	cv := &sim.Cond{}
	st.icmpEcho[id] = cv
	defer delete(st.icmpEcho, id)
	req := wire.ICMPHeader{Type: wire.ICMPEchoRequest, ID: id, Seq: 1}
	st.Stats.ICMPOut.Inc()
	if err := st.ipOutput(t, false, wire.ProtoICMP, dst, mbuf.FromBytesCopy(req.Marshal(nil)), 0, -1); err != nil {
		st.unlock()
		return false
	}
	ok := st.condWaitTimeout(t, cv, time.Duration(timeoutTicks)*tcpSlowInterval)
	st.unlock()
	return ok
}
