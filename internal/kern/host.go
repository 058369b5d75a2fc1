// Package kern simulates the host operating-system substrate the paper's
// protocol architecture runs on: a uniprocessor with a network device,
// a kernel packet filter with three user/kernel delivery interfaces
// (per-packet IPC, shared-memory ring, and the driver-integrated filter),
// Mach-style synchronous RPC for the proxy calls, and processes with
// death notification.
//
// All CPU work is charged in virtual time against the host's single CPU
// resource; interrupt-level work (device receive, packet filter, packet
// delivery) queue-jumps task-level work, mirroring the paper's
// uniprocessor hosts.
package kern

import (
	"time"

	"repro/internal/costs"
	"repro/internal/filter"
	"repro/internal/mbuf"
	"repro/internal/metrics"
	"repro/internal/offload"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Host is one simulated machine.
type Host struct {
	Sim  *sim.Sim
	Name string
	CPU  sim.Resource

	// Prof is the cost profile of the system configuration this host is
	// running; it prices the device and delivery components charged here.
	Prof costs.Profile

	IP  wire.IPAddr
	NIC *simnet.NIC

	// Offload is the simulated NIC offload engine, attached when the
	// profile's Offload.Enabled is set. It sits between the NIC and the
	// host: transmitted frames go through it (TSO slicing, checksum
	// fill) and received frames pass its LRO/verify/moderation stage
	// before the device-interrupt path runs.
	Offload *offload.Engine

	Filters   *filter.Set
	hook      filter.Hook
	endpoints int64 // live (created, not yet closed) endpoints

	nextPID int
	procs   map[int]*Process

	// Ledger holds the nanoseconds of CPU charged to each component on
	// this host. Every charge goes through Charge or chargeRx, which
	// record it before the CPU admits it, so the ledger sums to
	// CPU.BusyTime() + CPU.Waiting() (the ledger law of
	// psd.Network.Audit).
	Ledger [costs.NumComponents]metrics.Counter

	// Observe, when set, sees every charge as the ledger records it; it is
	// the tap behind bench.World.Observe.
	Observe func(comp costs.Component, d time.Duration)

	// Trace, when set, records packet-filter verdicts (match with filter
	// ID and bytes examined, or miss) on the flight recorder, and is the
	// recorder of every stack StackConfig builds.
	Trace *trace.Recorder

	// Routes is the routing table every stack on the host shares; nil
	// leaves each stack its default everything-on-link table.
	Routes *stack.RouteTable

	// Stats.
	RxFrames      metrics.Counter
	RxNoMatch     metrics.Counter // packet filter misses
	RxDropped     metrics.Counter // endpoint queue overflows
	DeliveryBytes metrics.Counter
	FilterMatch   metrics.Counter
	FilterSteal   metrics.Counter // matches won by a priority>0 (session) filter over the catch-all
	HookDrops     metrics.Counter // received frames the data-plane hook dropped
	HookAbsorbed  metrics.Counter // received frames the data-plane hook consumed

	// Per-interface delivery counts, by user/kernel receive interface.
	DeliveredIPC    metrics.Counter
	DeliveredSHM    metrics.Counter
	DeliveredSHMIPF metrics.Counter

	// Wakeups counts receiver sleep→wake transitions: a Recv that had to
	// block and was later signalled. Segments delivered per wakeup is
	// the architecture-comparison headline the moderation/LRO column
	// improves, so the counter lives here for every architecture.
	Wakeups metrics.Counter

	// Histograms, allocated only when SetMetrics is called; Observe on
	// nil is a single check.
	mQueueDepth *metrics.Histogram // endpoint queue occupancy after each delivery
	mRxWait     *metrics.Histogram // ns from frame arrival to Recv dequeue
	mWakeBatch  *metrics.Histogram // packets available when a blocked receiver wakes

	// scope is the host's registry root, kept so everything built on the
	// host after SetMetrics (stacks, the OS server, the data-plane hook)
	// binds under it.
	scope *metrics.Scope

	freeRx sim.Free[rxJob] // recycled receive-path jobs
}

// Metrics returns the host's registry root (e.g. "host.alpha"), or nil
// when metrics are disabled.
func (h *Host) Metrics() *metrics.Scope { return h.scope }

// ledgerNames are the ledger counters' names, "<component slug>_ns".
var ledgerNames = func() (names [costs.NumComponents]string) {
	for c := range names {
		names[c] = costs.Component(c).Slug() + "_ns"
	}
	return names
}()

// SetMetrics binds the host's kernel-side counters into a per-host
// registry scope and allocates the receive-path histograms. The scope
// is the host root (e.g. "host.alpha"); kern counters land under
// "<host>.kern.*", filter verdicts under "<host>.kern.filter.*", the
// NIC under "<host>.nic.*", and the ledger under "<host>.cpu.*": one
// "<component>_ns" counter each (the component's name with everything
// but letters and digits made '_') beside the CPU's "busy_ns".
func (h *Host) SetMetrics(hs *metrics.Scope) {
	if hs == nil {
		return
	}
	h.scope = hs
	h.NIC.BindMetrics(hs.Sub("nic"))
	if h.Offload != nil {
		h.Offload.BindMetrics(hs.Sub("nic").Sub("offload"))
	}
	cs := hs.Sub("cpu")
	for c := range h.Ledger {
		cs.Counter(ledgerNames[c], &h.Ledger[c])
	}
	cs.GaugeFunc("busy_ns", func() int64 { return int64(h.CPU.BusyTime()) })
	ks := hs.Sub("kern")
	ks.Counter("rx_frames", &h.RxFrames)
	ks.Counter("wakeups", &h.Wakeups)
	ks.Counter("rx_dropped", &h.RxDropped)
	ks.Counter("delivery_bytes", &h.DeliveryBytes)
	ks.Counter("delivered_ipc", &h.DeliveredIPC)
	ks.Counter("delivered_shm", &h.DeliveredSHM)
	ks.Counter("delivered_shm_ipf", &h.DeliveredSHMIPF)
	fs := ks.Sub("filter")
	fs.Counter("match", &h.FilterMatch)
	fs.Counter("miss", &h.RxNoMatch)
	fs.Counter("steal", &h.FilterSteal)
	ks.Counter("hook_drops", &h.HookDrops)
	ks.Counter("hook_absorbed", &h.HookAbsorbed)
	h.mQueueDepth = ks.Histogram("queue_depth")
	h.mRxWait = ks.Histogram("rx_wait_ns")
	h.mWakeBatch = ks.Histogram("wakeup_batch")
	ks.GaugeFunc("endpoints", h.Endpoints)
}

// Endpoints returns how many endpoints are live (created, not yet
// closed) on the host.
func (h *Host) Endpoints() int64 { return h.endpoints }

// NewHost attaches a new machine to the segment.
func NewHost(s *sim.Sim, seg *simnet.Segment, name string, mac wire.MAC, ip wire.IPAddr, prof costs.Profile) *Host {
	h := &Host{
		Sim:     s,
		Name:    name,
		Prof:    prof,
		IP:      ip,
		CPU:     sim.Resource{Name: name + ".cpu"},
		Filters: filter.NewSet(),
		nextPID: 1,
		procs:   make(map[int]*Process),
	}
	h.NIC = seg.AttachNamed(name, mac)
	h.NIC.Rx = h.rx
	if prof.Offload.Enabled {
		h.Offload = offload.New(offload.Config{
			Sim:   s,
			Name:  name,
			NIC:   h.NIC,
			Up:    h.rx,
			Costs: prof.Offload,
		})
		h.NIC.Rx = h.Offload.Rx
	}
	return h
}

// Charge bills d of CPU at priority pri to the calling thread p, as
// component comp. A non-positive d does nothing: even a zero-length Use
// would take a turn at admission and move the schedule.
func (h *Host) Charge(p *sim.Proc, pri sim.Priority, comp costs.Component, d time.Duration) {
	if d <= 0 {
		return
	}
	h.record(comp, d)
	h.CPU.Use(p, pri, d)
}

// record adds d to comp's ledger entry and shows it to Observe.
func (h *Host) record(comp costs.Component, d time.Duration) {
	h.Ledger[comp].Add(uint64(d))
	if h.Observe != nil {
		h.Observe(comp, d)
	}
}

// ProtoCharge returns the charge function a deployment hands its
// protocol stack: each layer's work is priced from pc and charged to the
// calling thread at task priority, or at interrupt priority on the
// threads intr claims (the in-kernel baseline's software-interrupt
// thread; intr may be nil).
func (h *Host) ProtoCharge(pc *costs.ProtoCosts, intr func(*sim.Proc) bool) func(t *sim.Proc, tcp bool, comp costs.Component, n int) {
	return func(t *sim.Proc, tcp bool, comp costs.Component, n int) {
		path := &pc.UDP
		if tcp {
			path = &pc.TCP
		}
		pri := sim.TaskPriority
		if intr != nil && intr(t) {
			pri = sim.IntrPriority
		}
		h.Charge(t, pri, comp, path[comp].At(n))
	}
}

// StackConfig is the one recipe for a protocol stack on this host, the
// same for every deployment: the stack "<host>.<role>" at the host's
// addresses, priced by prof and billed through ProtoCharge (intr as
// there), transmitting with the NIC's offloads, on the host's routes and
// flight recorder, and bound under the host's registry scope as
// "stack.<role>". Its input thread is an Endpoint.Drain.
func (h *Host) StackConfig(role string, prof *costs.Profile, intr func(*sim.Proc) bool) stack.Config {
	var maxTCP int
	if prof.LargeTCPSendBroken {
		maxTCP = 1024
	}
	return stack.Config{
		Sim:           h.Sim,
		Name:          h.Name + "." + role,
		LocalIP:       h.IP,
		LocalMAC:      h.NIC.MAC(),
		Costs:         &prof.Costs,
		Charge:        h.ProtoCharge(&prof.Costs, intr),
		Transmit:      h.Transmit,
		Routes:        h.Routes,
		MaxTCPPayload: maxTCP,
		// The NIC's offload engine, when attached, serves every stack on
		// the host: super-segments out, no software checksums.
		Offload: h.Prof.Offload.Enabled,
		Trace:   h.Trace,
		Metrics: h.scope.Sub("stack").Sub(role),
	}
}

// pathFor picks the per-protocol cost table for a received frame by
// peeking at the IP protocol field. Non-IP traffic (ARP) is priced with
// the UDP table, whose small-packet costs are the right magnitude.
func (h *Host) pathFor(frame []byte) *costs.PathCosts {
	if proto, ok := wire.IPProtoOf(frame); ok && proto == wire.ProtoTCP {
		return &h.Prof.Costs.TCP
	}
	return &h.Prof.Costs.UDP
}

// payloadLen returns the transport payload length of a frame, used to
// price per-byte costs the way Table 4 does (by message size).
func payloadLen(frame []byte) int {
	n := len(frame) - wire.EthHeaderLen - wire.IPv4HeaderLen - 8
	if n < 0 {
		n = 0
	}
	return n
}

// rxJob carries one frame through the staged receive path. Jobs are
// pooled per host, and the stage continuations are bound once at job
// construction, so the steady-state receive path schedules no new
// closures per frame.
type rxJob struct {
	h  *Host
	f  simnet.Frame
	pc *costs.PathCosts
	n  int
	ep *Endpoint

	planeFn   func() // routes through the data-plane hook after the device charge
	hookFn    func() // hands the frame to the hook after the dataplane charge
	filterFn  func() // charges the software interrupt after the device charge
	matchFn   func() // runs the packet filter after the softint charge
	deliverFn func() // delivers to the endpoint after the copyout charge
}

func (h *Host) newRxJob() *rxJob {
	j := &rxJob{h: h}
	j.planeFn = j.plane
	j.hookFn = j.runHook
	j.filterFn = j.filter
	j.matchFn = j.match
	j.deliverFn = j.deliver
	return j
}

func (h *Host) putRxJob(j *rxJob) {
	j.f, j.pc, j.ep = simnet.Frame{}, nil, nil
	h.freeRx.Put(j)
}

// rx is the NIC receive callback: it models the device interrupt, the
// packet filter, and delivery into the matching endpoint's queue. It runs
// entirely at interrupt priority on the host CPU.
func (h *Host) rx(f simnet.Frame) {
	h.RxFrames.Inc()
	j := h.freeRx.Get()
	if j == nil {
		j = h.newRxJob()
	}
	j.f = f
	j.pc = h.pathFor(f.Data)
	j.n = payloadLen(f.Data)
	// Device interrupt; for non-integrated configurations this includes
	// the copy from device memory into a kernel buffer. Then the
	// data-plane hook (if installed) and a software interrupt that
	// demultiplexes via the packet filter.
	h.chargeRx(costs.CompDeviceIntrRead, j.pc[costs.CompDeviceIntrRead].At(j.n), j.planeFn)
}

// plane routes the frame through the data-plane hook stage: the hook's
// traversal cost is charged first (rule chain + conntrack/NAT work),
// then runHook applies its effects. Hosts without a hook fall straight
// through to the software interrupt.
func (j *rxJob) plane() {
	h := j.h
	if h.hook == nil {
		j.filter()
		return
	}
	h.chargeRx(costs.CompDataplane, h.hook.IngressCost(j.f.Data), j.hookFn)
}

// runHook hands the frame to the hook and applies its verdict: drop and
// absorb terminate the receive path here; pass continues into the
// packet-filter stage. The hook owns what it is given: an Owned delivery
// itself, else a copy, for the network's read-only frame is never
// written.
func (j *rxJob) runHook() {
	h := j.h
	frame := j.f.Data
	if !j.f.Owned {
		frame = append([]byte(nil), frame...)
	}
	switch h.hook.Take(frame) {
	case filter.VerdictDrop:
		h.HookDrops.Inc()
		h.putRxJob(j)
		return
	case filter.VerdictAbsorb:
		h.HookAbsorbed.Inc()
		h.putRxJob(j)
		return
	}
	j.filter()
}

// filter charges the software-interrupt stage.
func (j *rxJob) filter() {
	j.h.chargeRx(costs.CompNetisrPF, j.pc[costs.CompNetisrPF].At(j.n), j.matchFn)
}

// match runs the packet filter and, on a hit, charges the delivery copy.
func (j *rxJob) match() {
	h := j.h
	m, examined := h.Filters.Match(j.f.Data)
	if m == nil {
		h.RxNoMatch.Inc()
		if h.Trace.On(trace.LayerFilter) {
			h.Trace.Emit(trace.LayerFilter, trace.EvFilterMiss, h.Name, "", "", 0, int64(examined), 0)
		}
		if j.f.Owned {
			mbuf.Free(j.f.Data)
		}
		h.putRxJob(j)
		return
	}
	h.FilterMatch.Inc()
	if m.Priority > 0 {
		// A session filter outbid the catch-all: the packet was "stolen"
		// from the OS server's fallback path.
		h.FilterSteal.Inc()
	}
	if h.Trace.On(trace.LayerFilter) {
		h.Trace.Emit(trace.LayerFilter, trace.EvFilterMatch, h.Name, "", "", int64(m.ID), int64(examined), 0)
	}
	j.ep = m.Owner.(*Endpoint)
	// Delivery: copy into the endpoint (IPC message, shared ring,
	// or the integrated filter's direct copy). Zero for the
	// in-kernel baseline, whose stack reads the kernel buffer.
	h.chargeRx(costs.CompKernelCopyout, j.pc[costs.CompKernelCopyout].At(j.n), j.deliverFn)
}

// deliver queues the frame at the matched endpoint and recycles the job.
func (j *rxJob) deliver() {
	j.ep.deliver(j.h, j.f, j.n)
	j.h.putRxJob(j)
}

// chargeRx is Charge for event context: it bills d of interrupt-priority
// CPU as comp and then continues. Zero-cost components continue
// immediately without touching the CPU.
func (h *Host) chargeRx(comp costs.Component, d time.Duration, then func()) {
	if d <= 0 {
		then()
		return
	}
	h.record(comp, d)
	h.CPU.UseEvent(h.Sim, sim.IntrPriority, d, then)
}

// Inject runs a frame through the host's receive path as if it had just
// arrived from the wire: device charge, packet filter, delivery. The OS
// server uses it to hand reassembled datagrams back to the filter set so
// a migrated session's filter can claim them.
func (h *Host) Inject(frame []byte) {
	h.rx(simnet.Frame{Data: frame})
}

// SetHook installs (or, with nil, removes) the host's data-plane hook.
// The hook sees every received frame between the device interrupt and
// the demultiplexing packet filter — on all architectures, since each
// is built on this host substrate.
func (h *Host) SetHook(hk filter.Hook) { h.hook = hk }

// Transmit sends a frame. It is every stack's transmit function and the
// path a data-plane hook sends its own frames on (hairpinned rewrites,
// ARP replies); no hook sees it, and nothing checks that a library
// transmits only as its own sessions. When an offload engine is
// attached it goes through it, so forwarded LRO super-segments are
// re-sliced instead of rejected by the MTU check.
func (h *Host) Transmit(frame []byte) error {
	if h.Offload != nil {
		return h.Offload.Transmit(frame)
	}
	return h.NIC.Transmit(frame)
}
