package dataplane

import (
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// State is a tracked flow's lifecycle state: the netfilter-style TCP
// machine, with StateNew doubling as the single UDP state.
type State uint8

const (
	StateNew State = iota // UDP, or TCP before any flag classified it
	StateSynSent
	StateSynRecv
	StateEstablished
	StateFinWait
	StateLastAck
	StateTimeWait
	StateClosed

	numStates
)

var stateNames = [numStates]string{
	"new", "syn_sent", "syn_recv", "established",
	"fin_wait", "last_ack", "time_wait", "closed",
}

func (s State) String() string {
	if s < numStates {
		return stateNames[s]
	}
	return "state(?)"
}

// xlate is the rewrite applied to one direction of a tracked flow
// before it is hairpinned back out the wire.
type xlate struct {
	to     wire.Flow // the 5-tuple the frame leaves with
	dstMAC wire.MAC
}

// flow is one tracked connection, registered in conntrack under two
// keys: orig, the initiating direction's wire tuple before translation,
// and reply(), the responding direction's.
type flow struct {
	id       uint64
	orig     wire.Flow
	fwd, rev xlate // rewrites for orig-direction and reply-direction frames

	state    State
	created  sim.Time
	lastSeen sim.Time
	finSeen  [2]bool

	// clientAck is the latest cumulative ACK seen from the initiator —
	// its rcv_nxt, which is the sequence number a synthesized RST toward
	// it must carry. clientEndSeq is the highest seq+len it has sent.
	clientAck    uint32
	clientEndSeq uint32
	sawReply     bool // reply-direction traffic seen (flow not embryonic)

	clientMAC wire.MAC // initiator's MAC, captured from its first frame

	backend int  // backend pool index the flow is pinned to
	vip     *VIP // owning VIP, for backend accounting
	snat    uint16
}

// reply is what the receiver of a translated orig-direction frame
// answers with.
func (f *flow) reply() wire.Flow { return f.fwd.to.Reverse() }

// ctEntry resolves a wire tuple to its flow and direction.
type ctEntry struct {
	f   *flow
	dir uint8 // 0: orig direction, 1: reply direction
}

// updateTCP advances the flow state machine for a segment with the given
// flags arriving from direction dir.
func (p *Plane) updateTCP(f *flow, dir uint8, flags uint8) {
	next := f.state
	switch {
	case flags&wire.TCPRst != 0:
		next = StateClosed
	case flags&wire.TCPSyn != 0 && flags&wire.TCPAck != 0 && dir == 1:
		if f.state == StateSynSent {
			next = StateSynRecv
		}
	case flags&wire.TCPSyn != 0 && dir == 0:
		if f.state == StateNew || f.state == StateSynSent {
			next = StateSynSent
		}
	case flags&wire.TCPFin != 0:
		f.finSeen[dir] = true
		if f.finSeen[0] && f.finSeen[1] {
			next = StateLastAck
		} else {
			next = StateFinWait
		}
	case flags&wire.TCPAck != 0:
		switch f.state {
		case StateSynRecv:
			if dir == 0 {
				next = StateEstablished
			}
		case StateLastAck:
			next = StateTimeWait
		}
	}
	p.setState(f, next)
}

// setState moves a flow between states, keeping the per-state gauges.
func (p *Plane) setState(f *flow, s State) {
	if f.state == s {
		return
	}
	p.stateCount[f.state]--
	p.stateCount[s]++
	f.state = s
}

// idleLimit returns the idle timeout for a flow's current state.
func (p *Plane) idleLimit(f *flow) time.Duration {
	if f.orig.Proto == wire.ProtoUDP {
		return DefaultUDPIdle
	}
	switch f.state {
	case StateEstablished:
		return DefaultEstablishedIdle
	case StateClosed:
		return DefaultClosedLinger
	default:
		return DefaultTransientIdle
	}
}

// insertFlow registers a flow under both of its wire tuples, evicting
// the stalest entry first when the table is full.
func (p *Plane) insertFlow(f *flow) {
	if p.flowCount >= p.cfg.MaxFlows {
		p.evictOne()
	}
	p.ct[f.orig] = ctEntry{f: f, dir: 0}
	p.ct[f.reply()] = ctEntry{f: f, dir: 1}
	p.flowCount++
	p.stateCount[f.state]++
	p.Stats.CTCreated.Inc()
	b := f.vip.backends[f.backend]
	b.Conns.Inc()
	b.liveFlows++
}

// removeFlow drops a flow from the table, releasing its SNAT port and
// backend accounting.
func (p *Plane) removeFlow(f *flow) {
	delete(p.ct, f.orig)
	delete(p.ct, f.reply())
	p.flowCount--
	p.stateCount[f.state]--
	if f.snat != 0 {
		p.snat.free(f.snat)
		f.snat = 0
	}
	f.vip.backends[f.backend].liveFlows--
}

// evictOne removes the least recently seen flow (ties break toward the
// oldest flow ID) — a deterministic table-full policy.
func (p *Plane) evictOne() {
	var victim *flow
	for _, e := range p.ct {
		if e.dir != 0 {
			continue
		}
		f := e.f
		if victim == nil || f.lastSeen < victim.lastSeen ||
			(f.lastSeen == victim.lastSeen && f.id < victim.id) {
			victim = f
		}
	}
	if victim != nil {
		p.removeFlow(victim)
		p.Stats.CTEvicted.Inc()
	}
}

// gc removes every flow idle past its state's limit. The walk is in map
// order: a flow's fate depends only on its own state, and removal only
// deletes entries, adjusts counts and clears a SNAT slot, so no order
// is observable.
func (p *Plane) gc() {
	now := p.cfg.Sim.Now()
	for _, e := range p.ct {
		if e.dir == 0 && now.Sub(e.f.lastSeen) >= p.idleLimit(e.f) {
			p.removeFlow(e.f)
			p.Stats.CTExpired.Inc()
		}
	}
}

// sortedFlows returns every tracked flow ordered by its original tuple.
func (p *Plane) sortedFlows() []*flow {
	out := make([]*flow, 0, p.flowCount)
	for _, e := range p.ct {
		if e.dir == 0 {
			out = append(out, e.f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].orig.Less(out[j].orig) })
	return out
}

// portAlloc hands out SNAT ports deterministically: a round-robin scan
// from the last allocation, so a given allocation/free history always
// yields the same ports.
type portAlloc struct {
	base  uint16
	inUse []bool
	used  int
	next  int
}

func newPortAlloc(base uint16, count int) *portAlloc {
	return &portAlloc{base: base, inUse: make([]bool, count)}
}

func (a *portAlloc) alloc() (uint16, bool) {
	if a.used == len(a.inUse) {
		return 0, false
	}
	for i := 0; i < len(a.inUse); i++ {
		slot := (a.next + i) % len(a.inUse)
		if !a.inUse[slot] {
			a.inUse[slot] = true
			a.used++
			a.next = (slot + 1) % len(a.inUse)
			return a.base + uint16(slot), true
		}
	}
	return 0, false
}

func (a *portAlloc) free(p uint16) {
	slot := int(p - a.base)
	if slot >= 0 && slot < len(a.inUse) && a.inUse[slot] {
		a.inUse[slot] = false
		a.used--
	}
}

func (a *portAlloc) inUseCount() int { return a.used }
