// Package trace is a deterministic flight recorder for the simulated
// network. Instrumented layers (the sim scheduler, the Ethernet segment,
// the kernel packet filter, the protocol stacks, and the OS servers)
// emit typed records stamped with virtual time; the recorder keeps them
// in dispatch order, which for a given seed is reproducible bit for bit.
//
// Recording is strictly passive: no virtual CPU time is charged and no
// events are scheduled, so an instrumented run reaches the same virtual
// end time as an uninstrumented one. When the recorder is nil or a layer
// is masked off, the instrumentation sites reduce to a single nil/mask
// check and allocate nothing.
//
// Records can be exported as human-readable text (WriteText), as a
// Wireshark-compatible pcap of the frame stream (WritePcap), or as
// Chrome trace_event JSON for chrome://tracing (WriteChromeTrace), and
// queried in tests with Expect (ordered-subsequence matching).
package trace

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Layer identifies the subsystem that emitted a record.
type Layer uint8

const (
	LayerSim    Layer = iota // scheduler: event dispatch, proc park/unpark
	LayerNet                 // Ethernet segment: frame tx/rx/drop, fault attribution
	LayerFilter              // kernel packet filter: match/miss per frame
	LayerStack               // protocol stack: TCP state machine, timers, checksums
	LayerCore                // OS servers: sessions, ports, migration
	numLayers
)

var layerNames = [numLayers]string{"sim", "net", "filter", "stack", "core"}

func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return fmt.Sprintf("layer(%d)", int(l))
}

// ParseLayer maps a layer name ("sim", "net", "filter", "stack", "core")
// back to its Layer, for command-line flags.
func ParseLayer(name string) (Layer, error) {
	for i, n := range layerNames {
		if n == name {
			return Layer(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown layer %q", name)
}

// Mask selects which layers a recorder captures.
type Mask uint8

// AllLayers enables every layer.
const AllLayers Mask = 1<<numLayers - 1

// MaskOf builds a mask from individual layers.
func MaskOf(layers ...Layer) Mask {
	var m Mask
	for _, l := range layers {
		m |= 1 << l
	}
	return m
}

// Event is the type of a trace record.
type Event uint8

const (
	// Scheduler (LayerSim).
	EvDispatch Event = iota // an event fired; Name is the resumed proc ("" for timers)
	EvPark                  // a proc blocked waiting for a wakeup
	EvUnpark                // a parked proc was made runnable

	// Network (LayerNet).
	EvFrameTx       // a frame finished serializing onto the segment (Frame holds the bytes)
	EvFrameRx       // a NIC accepted a frame
	EvFrameDrop     // the segment dropped a frame (Aux: "loss", "down", "malformed")
	EvFrameCorrupt  // fault injection flipped a bit (Arg0: bit index)
	EvFrameDup      // fault injection duplicated the frame
	EvFrameDelay    // fault injection delayed the frame (Arg0: extra ns)
	EvPartitionDrop // a partition swallowed the frame (Name: intended receiver)

	// Packet filter (LayerFilter).
	EvFilterMatch // a filter claimed the frame (Arg0: filter ID, Arg1: bytes examined)
	EvFilterMiss  // no filter claimed the frame

	// Protocol stack (LayerStack).
	EvTCPState     // TCP state transition (Name: conn, Aux: "OLD -> NEW")
	EvTCPRexmit    // retransmission (Aux: "rto", "fast", "persist"; Arg0: shift/dupacks)
	EvTCPCwnd      // congestion window changed (Arg0: cwnd, Arg1: ssthresh)
	EvTCPRTT       // RTT sample folded into srtt (Arg0: sample, Arg1: srtt, Arg2: rttvar; ns)
	EvChecksumDrop // inbound packet discarded on checksum (Aux: "ip", "tcp", "udp", "icmp")

	// OS servers (LayerCore).
	EvSession      // proxy session created (Arg0: session ID)
	EvPortOp       // port table operation (Aux: op; Name: proto; Arg0: port)
	EvConnSetup    // TCP connection established on behalf of an app (Arg0: session ID)
	EvConnTeardown // server-side session closed (Arg0: session ID)
	EvMigrate      // TCP session migrated (Aux: "to-app", "to-server"; Arg0: session ID)
	EvOrphanAbort  // orphaned session aborted after app death (Arg0: session ID)

	numEvents
)

var eventNames = [numEvents]string{
	"dispatch", "park", "unpark",
	"frame-tx", "frame-rx", "frame-drop", "frame-corrupt", "frame-dup", "frame-delay", "partition-drop",
	"filter-match", "filter-miss",
	"tcp-state", "tcp-rexmit", "tcp-cwnd", "tcp-rtt", "checksum-drop",
	"session", "port-op", "conn-setup", "conn-teardown", "migrate", "orphan-abort",
}

func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("event(%d)", int(e))
}

// eventLayers maps every event to the single layer that emits it, so
// queries can name an event without repeating the layer.
var eventLayers = [numEvents]Layer{
	LayerSim, LayerSim, LayerSim,
	LayerNet, LayerNet, LayerNet, LayerNet, LayerNet, LayerNet, LayerNet,
	LayerFilter, LayerFilter,
	LayerStack, LayerStack, LayerStack, LayerStack, LayerStack,
	LayerCore, LayerCore, LayerCore, LayerCore, LayerCore, LayerCore,
}

// LayerOf returns the layer that emits e.
func LayerOf(e Event) Layer { return eventLayers[e] }

// Record is one trace entry. Host tags the emitting component (a link or
// stack name such as "alpha" or "alpha.os-server"; empty for scheduler
// records). Name and Aux are event-specific labels — typically the
// primary object (proc, connection, remote link) and a qualifier (drop
// reason, state transition, retransmit kind). Frame is a private copy of
// the frame bytes, captured only for EvFrameTx.
type Record struct {
	Seq   uint64
	At    sim.Time
	Layer Layer
	Event Event
	Host  string
	Name  string
	Aux   string
	Arg0  int64
	Arg1  int64
	Arg2  int64
	Frame []byte
}

// Recorder accumulates trace records for one simulation. The zero of
// *Recorder (nil) is a valid, permanently-disabled recorder: On returns
// false and Emit is a no-op, so instrumentation sites need no nil checks
// beyond their On guard.
//
// A recorder can be split into lanes (see Lane) for sharded runs: each
// lane is a private single-writer buffer stamped by its own shard's
// clock, and the root merges them canonically on read. A recorder with
// no lanes — the classic case — keeps the original single-buffer
// behavior bit for bit.
type Recorder struct {
	sim     *sim.Sim
	mask    Mask
	limit   int
	dropped int
	seq     uint64
	recs    []Record

	root   *Recorder   // nil on the root recorder
	laneID int         // 0 for the root's own buffer
	lanes  []*Recorder // root only: child lanes in creation order
}

// New returns a recorder stamping records with s's virtual clock. With
// no layers given, every layer is captured.
func New(s *sim.Sim, layers ...Layer) *Recorder {
	m := AllLayers
	if len(layers) > 0 {
		m = MaskOf(layers...)
	}
	return &Recorder{sim: s, mask: m}
}

// Lane returns a child recorder that buffers privately and stamps
// records with s's clock. One lane per component (and per scheduler, in
// sharded runs) keeps every buffer single-writer, so shards may emit
// concurrently; Records on the root merges the lanes into one canonical
// stream ordered by (time, lane, emission seq). Lane ids follow
// creation order, which tracks topology construction order and is
// therefore deterministic. Lane on a nil recorder returns nil, so
// disabled tracing stays free.
func (r *Recorder) Lane(s *sim.Sim) *Recorder {
	if r == nil {
		return nil
	}
	root := r
	if root.root != nil {
		root = root.root
	}
	l := &Recorder{sim: s, mask: root.mask, limit: root.limit, root: root, laneID: len(root.lanes) + 1}
	root.lanes = append(root.lanes, l)
	return l
}

// On reports whether layer l is being captured. It is the guard every
// instrumentation site uses; it works on a nil receiver and performs no
// allocation, which is what makes disabled tracing free.
func (r *Recorder) On(l Layer) bool {
	return r != nil && r.mask&(1<<l) != 0
}

// Mask returns the recorder's layer mask (0 for a nil recorder).
func (r *Recorder) Mask() Mask {
	if r == nil {
		return 0
	}
	return r.mask
}

// SetLimit caps the number of retained records per lane; further emits
// are counted in Dropped instead of stored. Zero (the default) means
// unlimited. On a root recorder the limit propagates to existing lanes
// and is inherited by new ones.
func (r *Recorder) SetLimit(n int) {
	r.limit = n
	for _, l := range r.lanes {
		l.limit = n
	}
}

// Dropped returns the number of records discarded due to the limit,
// summed over lanes when called on a root.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	d := r.dropped
	for _, l := range r.lanes {
		d += l.dropped
	}
	return d
}

// Emit appends a record. Callers must check On first; Emit on a nil
// recorder is a no-op so an unguarded call is safe, just wasteful.
func (r *Recorder) Emit(l Layer, e Event, host, name, aux string, a0, a1, a2 int64) {
	if r == nil {
		return
	}
	r.add(Record{
		Layer: l, Event: e, Host: host, Name: name, Aux: aux,
		Arg0: a0, Arg1: a1, Arg2: a2,
	})
}

// EmitFrame appends a frame-carrying record, copying the frame bytes so
// later in-place corruption by fault injection cannot retroactively
// change the trace. wireSize is the frame's on-the-wire size including
// framing overhead.
func (r *Recorder) EmitFrame(e Event, host, name string, frame []byte, wireSize int64) {
	if r == nil {
		return
	}
	cp := make([]byte, len(frame))
	copy(cp, frame)
	r.add(Record{
		Layer: LayerOf(e), Event: e, Host: host, Name: name,
		Arg0: int64(len(frame)), Arg1: wireSize, Frame: cp,
	})
}

func (r *Recorder) add(rec Record) {
	if r.limit > 0 && len(r.recs) >= r.limit {
		r.dropped++
		return
	}
	r.seq++
	rec.Seq = r.seq
	rec.At = r.sim.Now()
	r.recs = append(r.recs, rec)
}

// Records returns the accumulated records. With no lanes this is the
// recorder's own backing store in emission order (callers must not
// modify it) — byte-identical to the pre-lane behavior. With lanes it
// is a fresh merged slice ordered by (At, lane id, per-lane seq) and
// renumbered 1..n: the canonical total order, a pure function of the
// simulation content regardless of how many shards recorded it.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	if len(r.lanes) == 0 {
		return r.recs
	}
	type tagged struct {
		rec  Record
		lane int
	}
	n := len(r.recs)
	for _, l := range r.lanes {
		n += len(l.recs)
	}
	merged := make([]tagged, 0, n)
	for _, rec := range r.recs {
		merged = append(merged, tagged{rec, 0})
	}
	for _, l := range r.lanes {
		for _, rec := range l.recs {
			merged = append(merged, tagged{rec, l.laneID})
		}
	}
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].rec.At != merged[b].rec.At {
			return merged[a].rec.At < merged[b].rec.At
		}
		if merged[a].lane != merged[b].lane {
			return merged[a].lane < merged[b].lane
		}
		return merged[a].rec.Seq < merged[b].rec.Seq
	})
	out := make([]Record, n)
	for i := range merged {
		out[i] = merged[i].rec
		out[i].Seq = uint64(i + 1)
	}
	return out
}

// Len returns the number of retained records across all lanes.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := len(r.recs)
	for _, l := range r.lanes {
		n += len(l.recs)
	}
	return n
}

// simTracer adapts the recorder to the sim.Tracer callback interface.
// It is installed only when LayerSim is enabled, so scheduler tracing
// costs nothing when off.
type simTracer struct{ r *Recorder }

func (t simTracer) EventDispatch(at sim.Time, proc string) {
	t.r.Emit(LayerSim, EvDispatch, "", proc, "", 0, 0, 0)
}
func (t simTracer) ProcPark(at sim.Time, proc string) {
	t.r.Emit(LayerSim, EvPark, "", proc, "", 0, 0, 0)
}
func (t simTracer) ProcUnpark(at sim.Time, proc string) {
	t.r.Emit(LayerSim, EvUnpark, "", proc, "", 0, 0, 0)
}

// SimTracer returns a sim.Tracer feeding the recorder, or nil when the
// sim layer is masked off (so the scheduler keeps its zero-cost path).
func (r *Recorder) SimTracer() sim.Tracer {
	if !r.On(LayerSim) {
		return nil
	}
	return simTracer{r}
}
