// Package simnet simulates a shared 10 Mb/s Ethernet segment.
//
// The model matches what the paper's measured network transit times imply:
// transmission serializes on a half-duplex shared medium at 0.8 µs/byte
// with a 64-byte minimum frame, and propagation delay on the LAN is
// negligible. Frames queue FIFO for the medium (a simplification of
// CSMA/CD that preserves the contention behaviour that matters here:
// data and acknowledgements share the wire).
//
// Fault injection (loss, duplication, single-bit corruption, reordering,
// delay/jitter, link down, partitions) is provided by the deterministic
// internal/fault layer: every attached station is a named link with its
// own seed-derived random stream. See Segment.Faults.
package simnet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/mbuf"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// ByteTime is the serialization time of one byte at 10 Mb/s.
const ByteTime = 800 * time.Nanosecond

// Frame is an Ethernet frame in flight: header plus payload, no CRC
// (the CRC is accounted for in wire size only).
//
// Ownership rules: the sender surrenders Data at Transmit. Delivery is
// by reference, with no per-hop copy. A delivery is Owned when no other
// delivery shares its buffer — a unicast that exactly one station takes,
// or a trunk delivery, and in either case not one half of a duplicate —
// and then the buffer is the receiving station's: it may rewrite it and
// Transmit it again, or hand its storage back to mbuf's pools (mbuf.Free,
// or mbuf.Chain.Adopt and the chain's reference counts) once nothing
// reads it. Every other delivery (a broadcast, a promiscuous sighting,
// either half of a duplicate) is read-only and never handed back, and so
// is the zero value: nobody writes or frees a Frame that is not Owned.
// Fault-injected corruption takes a private copy first (see
// Segment.inject), so a corrupted delivery never aliases the sender's
// buffer.
type Frame struct {
	Data  []byte
	Owned bool
}

// WireSize returns the frame's size on the wire, including CRC and
// minimum-frame padding.
func (f Frame) WireSize() int { return wire.FrameWireSize(len(f.Data) - wire.EthHeaderLen) }

// Stats counts segment activity. Drops are attributed by cause so the
// metrics registry can tell injected loss from a down link from a
// malformed frame.
type Stats struct {
	FramesSent      metrics.Counter
	BytesSent       metrics.Counter // wire bytes, including padding and CRC
	DropsLoss       metrics.Counter // lost to injected random loss
	DropsDown       metrics.Counter // lost because the sender's link was down
	DropsMalformed  metrics.Counter // unparseable Ethernet header
	FramesDup       metrics.Counter
	FramesCorrupted metrics.Counter // delivered with an injected bit flip
	FramesDelayed   metrics.Counter
	PartitionDrops  metrics.Counter // deliveries suppressed by partition / down receiver
	DeliveryEvents  metrics.Counter
}

// FramesDropped is the total across all drop causes.
func (s *Stats) FramesDropped() uint64 {
	return s.DropsLoss.Value() + s.DropsDown.Value() + s.DropsMalformed.Value()
}

// Segment is a shared Ethernet segment, or — in point-to-point trunk
// mode (see NewTrunk) — a full-duplex link whose two stations may live
// on different simulation shards.
type Segment struct {
	sim    *sim.Sim
	medium sim.Resource
	nics   []*NIC
	stats  Stats
	inj    *fault.Injector // nil until Faults() is first called
	tr     *trace.Recorder // nil unless tracing; see SetTrace

	// ByteTime is the per-byte serialization time; defaults to 0.8 µs
	// (10 Mb/s).
	byteTime time.Duration

	// Trunk mode: exactly two stations, each with its own serialization
	// medium (full duplex) and its own shard clock; frames cross with
	// prop delay, which doubles as the shard group's lookahead.
	ptp  bool
	prop time.Duration
}

// NewSegment returns an idle 10 Mb/s segment on s. Every station shares
// s's event queue: a shared segment is one serialization domain and must
// be wholly owned by one shard.
func NewSegment(s *sim.Sim) *Segment {
	return &Segment{sim: s, byteTime: ByteTime, medium: sim.Resource{Name: "ether"}}
}

// NewTrunk returns a point-to-point full-duplex link with the given
// propagation delay — the only legal place to cut a topology into
// shards, because the delay is the conservative lookahead that lets
// both sides run ahead. Delays below sim.MinLookahead (including zero)
// are clamped to it; the clamp is the documented alternative to
// rejecting zero-latency links outright. Attach each end with AttachOn,
// passing that end's shard sim. s seeds the trunk's fault streams and
// registers the lookahead with s's shard group, if any.
func NewTrunk(s *sim.Sim, prop time.Duration) *Segment {
	if prop < sim.MinLookahead {
		prop = sim.MinLookahead
	}
	if g := s.Group(); g != nil {
		// Observed unconditionally — even if both ends land on one
		// shard — so the window schedule depends on the topology alone,
		// never on the shard mapping.
		prop = g.ObserveLookahead(prop)
	}
	return &Segment{sim: s, byteTime: ByteTime, ptp: true, prop: prop}
}

// SetBitRate overrides the default 10 Mb/s serialization rate.
func (g *Segment) SetBitRate(bitsPerSec int64) {
	g.byteTime = time.Duration(8 * int64(time.Second) / bitsPerSec)
}

// Stats returns the live segment counters.
func (g *Segment) Stats() *Stats { return &g.stats }

// Bind registers the stats counters under a scope.
func (s *Stats) Bind(sc *metrics.Scope) {
	if sc == nil {
		return
	}
	sc.Counter("frames_sent", &s.FramesSent)
	sc.Counter("bytes_sent", &s.BytesSent)
	sc.Counter("drops_loss", &s.DropsLoss)
	sc.Counter("drops_down", &s.DropsDown)
	sc.Counter("drops_malformed", &s.DropsMalformed)
	sc.Counter("frames_dup", &s.FramesDup)
	sc.Counter("frames_corrupted", &s.FramesCorrupted)
	sc.Counter("frames_delayed", &s.FramesDelayed)
	sc.Counter("partition_drops", &s.PartitionDrops)
	sc.Counter("delivery_events", &s.DeliveryEvents)
}

// SetMetrics binds the segment's counters into a registry scope
// (typically "net"). Pass nil to leave metrics disabled; counting
// happens either way at plain-increment cost. Trunk directions bind
// their own Stats instead (NIC.DirStats).
func (g *Segment) SetMetrics(sc *metrics.Scope) {
	g.stats.Bind(sc)
}

// SetTrace attaches a flight recorder to the segment (nil to detach).
// The net layer records frame transmissions (with the frame bytes, for
// pcap export), receptions, and every fault-layer intervention with its
// attribution.
func (g *Segment) SetTrace(r *trace.Recorder) { g.tr = r }

// Faults returns the segment's fault injector, creating it on first
// use. Station names given to AttachNamed are the link names the
// injector sees.
func (g *Segment) Faults() *fault.Injector {
	if g.inj == nil {
		g.inj = fault.NewInjector(g.sim)
	}
	return g.inj
}

// NIC is a station attached to a segment. Rx is invoked in event context
// when a frame addressed to this station (or broadcast, or anything in
// promiscuous mode) finishes arriving; it models the start of the device
// interrupt and must not block.
type NIC struct {
	seg     *Segment
	sim     *sim.Sim // owner shard: all of this station's events run here
	name    string
	mac     wire.MAC
	Promisc bool
	Rx      func(f Frame)

	// TxDone, when set, is invoked in event context each time one of
	// this station's frames finishes serializing onto the medium. Router
	// ports use it to track egress-queue occupancy (frames handed to
	// Transmit that have not yet cleared the wire).
	TxDone func(f Frame)

	TxFrames metrics.Counter
	RxFrames metrics.Counter
	TxBytes  metrics.Counter // wire bytes, including padding and CRC
	RxBytes  metrics.Counter

	free sim.Free[txJob] // recycled transmit jobs (per station: single-writer)

	// Trunk direction state. stats points at the direction's own
	// counters in ptp mode and at the segment's in shared mode, so every
	// counter has exactly one writing shard. tr, when set, overrides the
	// segment recorder (psd gives each direction its own trace lane).
	// origin/oseq key this direction's deliveries in the global merge
	// order; medium models the direction's private wire (full duplex).
	stats    *Stats
	tr       *trace.Recorder
	peer     *NIC
	medium   *sim.Resource
	dirStats Stats
	origin   uint64
	oseq     uint64
}

// BindMetrics registers the NIC's counters under a scope (typically
// "host.<name>.nic").
func (n *NIC) BindMetrics(sc *metrics.Scope) {
	if sc == nil {
		return
	}
	sc.Counter("tx_frames", &n.TxFrames)
	sc.Counter("rx_frames", &n.RxFrames)
	sc.Counter("tx_bytes", &n.TxBytes)
	sc.Counter("rx_bytes", &n.RxBytes)
}

// Attach adds a new station with the given MAC to the segment, named
// after the MAC.
func (g *Segment) Attach(mac wire.MAC) *NIC {
	return g.AttachNamed(mac.String(), mac)
}

// AttachNamed adds a new station with the given link name and MAC. The
// name identifies the station to the fault injector ("partition a from
// b", per-link rates, per-link counters).
func (g *Segment) AttachNamed(name string, mac wire.MAC) *NIC {
	return g.AttachOn(g.sim, name, mac)
}

// AttachOn adds a station owned by shard sim s. On a shared segment s
// must be the segment's own sim (one serialization domain, one shard);
// on a trunk it is the attaching end's shard, and the trunk takes at
// most two stations.
func (g *Segment) AttachOn(s *sim.Sim, name string, mac wire.MAC) *NIC {
	if !g.ptp && s != g.sim {
		panic("simnet: a shared segment's stations must all live on the segment's own shard; cut shards at trunks")
	}
	if g.ptp && len(g.nics) >= 2 {
		panic("simnet: a trunk is point-to-point; it takes exactly two stations")
	}
	n := &NIC{seg: g, sim: s, name: name, mac: mac, stats: &g.stats}
	if g.ptp {
		n.stats = &n.dirStats
		n.medium = &sim.Resource{Name: "trunk-" + name}
		n.origin = s.AllocOrigin()
		// Both directions' fault streams must exist before shards run
		// concurrently: the injector's link map grows lazily otherwise.
		g.Faults().Prime(name)
		if len(g.nics) == 1 {
			prev := g.nics[0]
			prev.peer, n.peer = n, prev
		}
	}
	g.nics = append(g.nics, n)
	return n
}

// Sim returns the shard sim that owns this station.
func (n *NIC) Sim() *sim.Sim { return n.sim }

// DirStats returns this station's transmit-direction counters: its own
// on a trunk, the shared segment's otherwise.
func (n *NIC) DirStats() *Stats { return n.stats }

// SetTrace overrides the segment recorder for records attributed to
// this station (per-direction trace lanes in sharded runs).
func (n *NIC) SetTrace(r *trace.Recorder) { n.tr = r }

// rec returns the recorder for this station's records.
func (n *NIC) rec() *trace.Recorder {
	if n.tr != nil {
		return n.tr
	}
	return n.seg.tr
}

// MAC returns the station's hardware address.
func (n *NIC) MAC() wire.MAC { return n.mac }

// Name returns the station's link name.
func (n *NIC) Name() string { return n.name }

// txJob carries one frame through medium acquisition, or a delayed
// delivery to its station (from is then its sender). Jobs are pooled
// on the station they run for and their continuation is bound once, so
// the steady-state transmit and delivery paths allocate nothing beyond
// the frame itself.
type txJob struct {
	n, from *NIC
	f       Frame
	runFn   func()
}

func (n *NIC) getTxJob() *txJob {
	if j := n.free.Get(); j != nil {
		return j
	}
	j := &txJob{n: n}
	j.runFn = j.run
	return j
}

// run is the job's continuation: done for a transmit, and for a delayed
// delivery its arrival at the station.
func (j *txJob) run() {
	if j.from == nil {
		j.done()
		return
	}
	n, from, f := j.n, j.from, j.f
	j.from, j.f = nil, Frame{}
	n.free.Put(j)
	if tr := n.seg.tr; tr.On(trace.LayerNet) {
		tr.Emit(trace.LayerNet, trace.EvFrameRx, n.name, from.name, "", int64(len(f.Data)), 0, 0)
	}
	n.Rx(f)
}

// done runs when the frame has finished serializing onto the medium.
func (j *txJob) done() {
	n, f := j.n, j.f
	g := n.seg
	j.f = Frame{}
	n.free.Put(j)
	wireBytes := uint64(f.WireSize())
	n.stats.FramesSent.Inc()
	n.stats.BytesSent.Add(wireBytes)
	n.TxBytes.Add(wireBytes)
	if r := n.rec(); r.On(trace.LayerNet) {
		r.EmitFrame(trace.EvFrameTx, n.name, "", f.Data, int64(f.WireSize()))
	}
	if n.TxDone != nil {
		n.TxDone(f)
	}
	g.inject(n, f)
}

// Transmit queues a frame for the medium (the shared wire, or this
// direction's private wire on a trunk). It may be called from event or
// process context on the station's own shard; the frame is delivered to
// receivers after the medium has been acquired and the frame
// serialized. The sender gives up the data slice with the call: delivery
// is by reference, and only an Owned delivery may write it (see Frame).
func (n *NIC) Transmit(data []byte) error {
	if len(data) < wire.EthHeaderLen {
		return fmt.Errorf("simnet: frame shorter than Ethernet header (%d bytes)", len(data))
	}
	if len(data) > wire.EthHeaderLen+wire.EthMTU {
		return fmt.Errorf("simnet: frame payload exceeds MTU (%d bytes)", len(data)-wire.EthHeaderLen)
	}
	g := n.seg
	n.TxFrames.Inc()
	j := n.getTxJob()
	j.f = Frame{Data: data}
	txTime := time.Duration(j.f.WireSize()) * g.byteTime
	m := &g.medium
	if n.medium != nil {
		m = n.medium
	}
	m.UseEvent(n.sim, sim.TaskPriority, txTime, j.runFn)
	return nil
}

// inject applies the fault layer's verdict to a serialized frame and
// hands the surviving copies to deliver.
func (g *Segment) inject(from *NIC, f Frame) {
	if g.inj == nil {
		g.deliver(from, f, 0, false)
		return
	}
	// Only bits past the Ethernet header are corruptible: a real NIC's
	// frame CRC would catch link-header damage, so modeling it would
	// only test the simulator, not the protocol stack.
	d := g.inj.Outbound(from.name, (len(f.Data)-wire.EthHeaderLen)*8)
	r := from.rec()
	on := r.On(trace.LayerNet)
	if d.Drop {
		// Attribute the drop regardless of tracing so the metrics
		// registry can break drops out by cause.
		reason := "loss"
		if g.inj.Down(from.name) {
			reason = "down"
			from.stats.DropsDown.Inc()
		} else {
			from.stats.DropsLoss.Inc()
		}
		if on {
			r.Emit(trace.LayerNet, trace.EvFrameDrop, from.name, "", reason, 0, 0, 0)
		}
		mbuf.Free(f.Data) // the sender gave it up and nobody else has it
		return
	}
	if d.CorruptBit >= 0 {
		data := mbuf.Frame(len(f.Data))
		copy(data, f.Data)
		mbuf.Free(f.Data)
		data[wire.EthHeaderLen+d.CorruptBit/8] ^= 1 << (d.CorruptBit % 8)
		f = Frame{Data: data}
		from.stats.FramesCorrupted.Inc()
		if on {
			r.Emit(trace.LayerNet, trace.EvFrameCorrupt, from.name, "", "", int64(d.CorruptBit), 0, 0)
		}
	}
	if d.Delay > 0 {
		from.stats.FramesDelayed.Inc()
		if on {
			r.Emit(trace.LayerNet, trace.EvFrameDelay, from.name, "", "", int64(d.Delay), 0, 0)
		}
	}
	g.deliver(from, f, d.Delay, d.Dup)
	if d.Dup {
		from.stats.FramesDup.Inc()
		if on {
			r.Emit(trace.LayerNet, trace.EvFrameDup, from.name, "", "", 0, 0, 0)
		}
		g.deliver(from, f, d.Delay, true)
	}
}

// deliver hands f to every station that takes it; dup marks one half of
// a duplicated frame, whose buffer the other half shares. A frame that
// is not half of a duplicate and that no station takes goes back to
// mbuf's pools.
func (g *Segment) deliver(from *NIC, f Frame, delay time.Duration, dup bool) {
	hdr, err := wire.UnmarshalEth(f.Data)
	if err != nil {
		from.stats.DropsMalformed.Inc()
		if r := from.rec(); r.On(trace.LayerNet) {
			r.Emit(trace.LayerNet, trace.EvFrameDrop, from.name, "", "malformed", 0, 0, 0)
		}
		if !dup {
			mbuf.Free(f.Data)
		}
		return
	}
	owned := !dup && !hdr.Dst.IsBroadcast()
	if g.ptp {
		if !g.deliverTrunk(from, hdr, Frame{Data: f.Data, Owned: owned}, delay) && !dup {
			mbuf.Free(f.Data)
		}
		return
	}
	takers := 0 // a promiscuous station, or a second one with the MAC, shares a unicast
	for _, nic := range g.nics {
		if nic != from && (nic.Promisc || nic.mac == hdr.Dst) {
			takers++
		}
	}
	rf := Frame{Data: f.Data, Owned: owned && takers == 1}
	taken := false
	for _, nic := range g.nics {
		if nic == from {
			continue // Ethernet does not deliver a frame to its sender
		}
		if !nic.Promisc && nic.mac != hdr.Dst && !hdr.Dst.IsBroadcast() {
			continue
		}
		if g.inj != nil && g.inj.Cut(from.name, nic.name) {
			g.stats.PartitionDrops.Inc()
			if g.tr.On(trace.LayerNet) {
				g.tr.Emit(trace.LayerNet, trace.EvPartitionDrop, from.name, nic.name, "", 0, 0, 0)
			}
			continue
		}
		g.stats.DeliveryEvents.Inc()
		nic.RxFrames.Inc()
		nic.RxBytes.Add(uint64(f.WireSize()))
		if nic.Rx == nil {
			continue
		}
		taken = true
		if delay == 0 {
			if g.tr.On(trace.LayerNet) {
				g.tr.Emit(trace.LayerNet, trace.EvFrameRx, nic.name, from.name, "", int64(len(f.Data)), 0, 0)
			}
			nic.Rx(rf)
		} else {
			j := nic.getTxJob()
			j.from, j.f = from, rf
			g.sim.After(delay, j.runFn)
		}
	}
	if !taken && !dup {
		mbuf.Free(f.Data)
	}
}

// deliverTrunk carries a frame to the far end of a point-to-point link.
// Transmit-side decisions (partition cut, delivery accounting) run on
// the sending shard; the arrival event runs on the receiving shard at
// now + prop (+ injected delay), keyed (at, direction origin, seq) so
// the merged cross-shard order is intrinsic to the traffic, not to the
// shard mapping. The receive-side counters and trace records are
// written inside the arrival event — on the receiver's shard — keeping
// every counter and lane single-writer. It reports whether the far end
// takes the frame.
func (g *Segment) deliverTrunk(from *NIC, hdr wire.EthHeader, f Frame, delay time.Duration) bool {
	peer := from.peer
	if peer == nil || !peer.Promisc && peer.mac != hdr.Dst && !hdr.Dst.IsBroadcast() {
		return false // far end not attached yet, or not taking the frame
	}
	if g.inj != nil && g.inj.CutTx(from.name, peer.name) {
		from.stats.PartitionDrops.Inc()
		if r := from.rec(); r.On(trace.LayerNet) {
			r.Emit(trace.LayerNet, trace.EvPartitionDrop, from.name, peer.name, "", 0, 0, 0)
		}
		return false
	}
	from.stats.DeliveryEvents.Inc()
	at := from.sim.Now().Add(g.prop + delay)
	from.oseq++
	a, _ := trunkArrivals.Get().(*trunkArrival)
	if a == nil {
		a = new(trunkArrival)
		a.run = a.deliver
	}
	a.peer, a.f = peer, f
	from.sim.SendRemote(peer.sim, at, from.origin, from.oseq, a.run)
	return true
}

// trunkArrival is one frame in flight on a trunk and the station it
// arrives at; run is its deliver method, bound once when the record is
// made, so a crossing allocates nothing once the pool is warm. The
// sending shard owns a record until the window barrier hands its event
// to the receiving shard, which owns it until deliver puts it back:
// records cross shard goroutines, hence a sync.Pool (DESIGN §5).
type trunkArrival struct {
	peer *NIC
	f    Frame
	run  func()
}

var trunkArrivals sync.Pool

// deliver is the arrival event, on the receiving station's shard.
func (a *trunkArrival) deliver() {
	peer, f := a.peer, a.f
	a.peer, a.f = nil, Frame{}
	trunkArrivals.Put(a)
	peer.RxFrames.Inc()
	peer.RxBytes.Add(uint64(f.WireSize()))
	if r := peer.rec(); r.On(trace.LayerNet) {
		r.Emit(trace.LayerNet, trace.EvFrameRx, peer.name, peer.peer.name, "", int64(len(f.Data)), 0, 0)
	}
	if peer.Rx != nil {
		peer.Rx(f)
	} else if f.Owned {
		mbuf.Free(f.Data)
	}
}
