// Package stack implements a complete 4.3BSD-structured TCP/IP and UDP/IP
// protocol stack over the simulated Ethernet.
//
// The same code is deployed three ways — the paper's "reuse of existing
// protocol code" — and the line the paper's Table 1 (§3.2) draws between
// them is a type here:
//
//   - *Stack is the fast path: Input, the timers, every call that moves
//     data on a session that exists, and the calls that move a session
//     between stacks. It resolves next hops through the Resolver it was
//     built over and never answers a segment no socket claims. A
//     protocol library (internal/core's Library) links this and nothing
//     more: it cannot name connect.
//   - *Control embeds a Stack and adds the calls that name, open and
//     close sessions — NewSocket, Bind, Connect, Listen, Accept, Close,
//     Abort — with the port namespace and the ARP engine they need. The
//     in-kernel and server baselines (internal/monolith) and the
//     decomposed architecture's OS server (core.Server) hold one.
//
// Deployments otherwise differ only in the cost profile charged for each
// layer and the thread priorities they choose.
//
// Structure mirrors the BSD original: a socket layer with send/receive
// buffers, tcp_input/tcp_output/tcp_timers over a tcpcb, udp_input/
// udp_output, ip_input/ip_output with fragmentation and reassembly, ARP,
// and ICMP errors. Data is carried in mbuf chains.
package stack

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"repro/internal/costs"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Addr is a transport endpoint.
type Addr struct {
	IP   wire.IPAddr
	Port uint16
}

// IsZero reports whether the endpoint is fully wildcarded.
func (a Addr) IsZero() bool { return a.IP.IsZero() && a.Port == 0 }

// tuple identifies a connection.
type tuple struct {
	proto  uint8
	local  Addr
	remote Addr
}

// ChargeFunc prices one protocol layer's work on the calling thread. The
// deployment supplies it, choosing CPU priority and metering. n is the
// transport payload size involved (0 for pure control segments).
type ChargeFunc func(t *sim.Proc, tcp bool, comp costs.Component, n int)

// Resolver maps next-hop IP addresses to hardware addresses. A Control
// resolves through its own ARP engine; a library's Stack is built over a
// caching proxy of the operating-system server's tables (§3.3).
type Resolver interface {
	// ResolveOrQueue returns (mac, true) when the next hop's address is
	// known; the caller then writes mac into frame[0:6] and transmits
	// frame itself. Otherwise it takes ownership of frame, a complete
	// link frame but for its destination address, and returns false:
	// if resolution later succeeds it writes the address into
	// frame[0:6] and transmits the frame, else it drops it.
	// Implementations must not block protocol input threads: output
	// triggered by packet processing (ACKs, RSTs, ICMP errors) flows
	// through here.
	ResolveOrQueue(t *sim.Proc, ip wire.IPAddr, frame []byte) (wire.MAC, bool)
}

// Config assembles a stack; the constructor, not a field, picks its role.
type Config struct {
	Sim      *sim.Sim
	Name     string
	LocalIP  wire.IPAddr
	LocalMAC wire.MAC

	Costs  *costs.ProtoCosts
	Charge ChargeFunc
	// Transmit puts a fully-formed frame on the wire. The EtherOutput
	// charge has already been applied when it is called.
	Transmit func(frame []byte) error

	Routes *RouteTable

	// MaxTCPPayload, when nonzero, models the 386BSD/BNR2SS bug that
	// prevents sending large TCP packets: segments are clamped to this
	// size and sosend rejects messages needing larger ones.
	MaxTCPPayload int

	// TSOMaxPayload, when nonzero, enables TSO/GSO-style segmentation
	// offload: tcp_output may emit one oversized frame carrying up to
	// this many payload bytes, and the NIC offload engine — not the
	// stack — slices it into MSS-sized wire frames. The send queue keeps
	// holding the unsegmented byte stream, so retransmission after a
	// dropped slice works unchanged.
	TSOMaxPayload int

	// ChecksumOffload, when true, moves transport checksumming to the
	// NIC engine: outbound TCP/UDP frames leave the stack with a zero
	// checksum field for the engine to fill, and inbound verification is
	// skipped (the engine already verified and dropped bad frames).
	ChecksumOffload bool

	// Trace, when set, is the flight recorder stack-layer events are
	// emitted on: TCP state transitions, retransmissions, cwnd and RTT
	// samples, and checksum discards. Tracing is passive — it charges no
	// virtual CPU — and free when unset.
	Trace *trace.Recorder

	// Metrics, when set, is the registry scope (e.g.
	// "host.alpha.stack.kstack") the stack binds its counters, latency
	// histograms and population gauges into at construction.
	Metrics *metrics.Scope
}

// Stack is one instance of the protocol stack: the fast path, which is
// all of it that a protocol library holds.
type Stack struct {
	cfg      Config
	resolver Resolver
	// quiet reports whether a segment that matches no socket (or that a
	// listener would reject) goes unanswered, drawing no RST or ICMP
	// unreachable. The constructor sets it.
	quiet func(proto uint8, local, remote Addr) bool

	conns   map[tuple]*Socket // fully-specified connections (TCP and connected UDP)
	binds   map[tuple]*Socket // wildcard-remote sockets (listeners, unconnected UDP)
	ipID    uint16
	rng     *rand.Rand // the stack's own stream (ISS, ephemeral-port perturbation)
	issSeed uint32
	sockSeq uint64 // socket creation counter (deterministic iteration order)

	// socks is every socket some conns/binds entry names, once, in
	// creation order (file and unfile keep it): what the timers and the
	// socket-table reports walk instead of gathering and sorting the
	// maps. The order matters: Go map iteration is randomized, and timer
	// actions (retransmissions, delayed ACKs) race for the shared medium,
	// so an unordered walk makes runs with the same seed diverge.
	// timoSocks is the timers' snapshot of it (their callbacks file and
	// unfile sockets), reused so the periodic walks allocate nothing in
	// steady state: they fire on every host several times per virtual
	// second, and at city scale were the dominant allocation site.
	socks, timoSocks []*Socket

	reasm         *Reassembler   // fragments addressed to this stack
	reasms        []*Reassembler // every table the slow timer ages, reasm first
	icmpEcho      map[uint16]*sim.Cond
	timersStopped bool // StopTimers: the timer threads exit at their next tick

	// rxVerified is set by ipInput before dispatching to a transport:
	// true when the NIC engine already verified this segment's checksum
	// (checksum offload, unfragmented), so the software pass is skipped.
	// Guarded by mu like all input-path state.
	rxVerified bool
	rx         rxFrame // the frame the running Input call is processing

	// mu serializes protocol processing, playing the role of BSD's
	// splnet/priority-level machinery: application calls, input
	// processing, and timers all run under it. Threads in this simulation
	// interleave at every CPU charge, so without it two threads could
	// both decide to transmit the same sequence range.
	mu sim.Mutex

	// Stats, exported for tests and the benchmark harness.
	Stats Stats

	// Latency histograms on the virtual clock; nil (free) unless
	// Config.Metrics is set.
	mRTT     *metrics.Histogram // smoothed-RTT input samples (send-to-ACK), ns
	mConnect *metrics.Histogram // active-open SYN-sent to ESTABLISHED, ns
	mCwnd    *metrics.Histogram // congestion-window samples at change points, bytes
}

// Stats counts stack activity. The fields are metrics counters so the
// registry binds to the same storage the tests read: the two can never
// disagree, and counting stays a plain increment whether or not a
// registry is attached.
type Stats struct {
	IPIn, IPOut           metrics.Counter
	IPFragsOut, IPReasmOK metrics.Counter
	IPReasmTimeout        metrics.Counter
	TCPIn, TCPOut         metrics.Counter
	TCPPureAcks           metrics.Counter
	TCPRexmit             metrics.Counter
	TCPFastRexmit         metrics.Counter
	TCPDupAcks            metrics.Counter
	TCPDelayedAcks        metrics.Counter
	UDPIn, UDPOut         metrics.Counter
	UDPNoPort             metrics.Counter
	ICMPIn, ICMPOut       metrics.Counter
	// Per-protocol checksum discard counters (IP header, TCP segment,
	// UDP datagram, ICMP message). The total is the ChecksumErrors
	// method — a derived sum, not a second field that could drift.
	IPChecksumErrors   metrics.Counter
	TCPChecksumErrors  metrics.Counter
	UDPChecksumErrors  metrics.Counter
	ICMPChecksumErrors metrics.Counter
	Drops              metrics.Counter

	// Socket-layer data-movement accounting for the chain API. Copied
	// counts payload bytes physically copied crossing the socket layer
	// (BSD copyin/copyout, fallback paths); Aliased counts bytes moved
	// by reference only (SendChain, zero-copy sends, RecvPeek views,
	// splice). copies/byte for a workload is SockCopiedBytes over total
	// payload.
	SockCopiedBytes  metrics.Counter
	SockAliasedBytes metrics.Counter
	// Splice/selective-copy activity (sendfile-style forwarding).
	SpliceOps          metrics.Counter
	SpliceBytes        metrics.Counter
	ZeroCopyRxBytes    metrics.Counter // bytes returned as RecvPeek aliased views
	SelectiveCopyBytes metrics.Counter // bytes materialized by CopyRanges specs

	// SwChecksumBytes counts transport-segment bytes the stack ran its
	// software checksum over — computed on output or verified on input.
	// With checksum offload the NIC engine does this work instead, so
	// the counter is the direct measure of what offloading removed.
	SwChecksumBytes metrics.Counter

	// TSOSends counts oversized (> MSS) segments handed to the NIC
	// engine for segmentation.
	TSOSends metrics.Counter
}

// ChecksumErrors is the total number of inbound packets discarded for a
// bad checksum, across all protocols.
func (s *Stats) ChecksumErrors() uint64 {
	return s.IPChecksumErrors.Value() + s.TCPChecksumErrors.Value() +
		s.UDPChecksumErrors.Value() + s.ICMPChecksumErrors.Value()
}

// Control is a stack that owns its host's names: the fast path plus the
// calls of Table 1 that a protocol library must ask the OS server for
// (the methods are in socket.go), the port namespace and the ARP engine.
type Control struct {
	*Stack
	ports *LocalPorts
	arp   *arpEngine
}

// NewControl builds a complete stack that names its sockets in ports,
// resolves through its own ARP engine and answers every segment no
// socket claims. The caller must arrange for Input to be fed frames and
// should call StartTimers once a timer thread context exists.
func NewControl(cfg Config, ports *LocalPorts) *Control {
	c := &Control{Stack: New(cfg, nil), ports: ports}
	c.arp = newARPEngine(c.Stack)
	c.resolver = c.arp
	c.quiet = func(uint8, Addr, Addr) bool { return false }
	return c
}

// SetOrphanFilter installs f, consulted before responding to a segment
// that matches no connection (or that would be rejected by a listener):
// returning true suppresses the RST/ICMP. The OS server of the decomposed
// architecture uses it to stay quiet about sessions that have migrated
// to an application — packets already queued at the server when the
// filter handoff happened must not reset a live connection; the peer's
// retransmission will reach the right address space.
func (st *Control) SetOrphanFilter(f func(proto uint8, local, remote Addr) bool) { st.quiet = f }

// New builds the fast path alone, as a protocol library links it. Next
// hops resolve through r, and a segment no socket claims goes unanswered:
// a library only sees its own sessions' packets, so a stray is a
// migration race, never a protocol error, and the session's new owner
// will handle the retransmission. Input and StartTimers as for NewControl.
func New(cfg Config, r Resolver) *Stack {
	if cfg.Routes == nil {
		cfg.Routes = NewRouteTable()
		// Single-segment default: everything is on-link.
		cfg.Routes.Add(wire.IPAddr{}, 0, wire.IPAddr{}, true)
	}
	st := &Stack{
		cfg:      cfg,
		resolver: r,
		quiet:    func(uint8, Addr, Addr) bool { return true },
		conns:    make(map[tuple]*Socket),
		binds:    make(map[tuple]*Socket),
		icmpEcho: make(map[uint16]*sim.Cond),
		// A per-stack stream keyed by the stack's name: draws (ISS
		// generation, ephemeral-port perturbation) stay identical no
		// matter what else runs concurrently or which shard the stack
		// lands on. The shared cfg.Sim.Rand() would make every draw
		// depend on global event order.
		rng: cfg.Sim.Stream("stack." + cfg.Name),
	}
	st.issSeed = st.rng.Uint32()
	st.reasm = st.NewReassembler()
	st.bindMetrics(cfg.Metrics)
	return st
}

// LocalIP returns the stack's IP address.
func (st *Stack) LocalIP() wire.IPAddr { return st.cfg.LocalIP }

// Name returns the stack's diagnostic name.
func (st *Stack) Name() string { return st.cfg.Name }

func (st *Stack) now() sim.Time { return st.cfg.Sim.Now() }

func (st *Stack) charge(t *sim.Proc, tcp bool, comp costs.Component, n int) {
	if st.cfg.Charge != nil {
		st.cfg.Charge(t, tcp, comp, n)
	}
}

// traceOn reports whether stack-layer tracing is live; every
// instrumentation site guards on it so disabled tracing allocates
// nothing.
func (st *Stack) traceOn() bool { return st.cfg.Trace.On(trace.LayerStack) }

// traceEmit records one stack-layer event tagged with the stack's name.
func (st *Stack) traceEmit(e trace.Event, name, aux string, a0, a1, a2 int64) {
	st.cfg.Trace.Emit(trace.LayerStack, e, st.cfg.Name, name, aux, a0, a1, a2)
}

func (st *Stack) lock(t *sim.Proc) { st.mu.Lock(t) }
func (st *Stack) unlock()          { st.mu.Unlock() }

// condWait releases the protocol lock around a condition wait, like
// tsleep dropping to spl0.
func (st *Stack) condWait(t *sim.Proc, c *sim.Cond) {
	st.mu.Unlock()
	c.Wait(t)
	st.mu.Lock(t)
}

// condWaitTimeout is condWait with a deadline; it reports whether the
// condition was signalled.
func (st *Stack) condWaitTimeout(t *sim.Proc, c *sim.Cond, d time.Duration) bool {
	st.mu.Unlock()
	ok := c.WaitTimeout(t, d)
	st.mu.Lock(t)
	return ok
}

// StartTimers launches the TCP fast (200 ms) and slow (500 ms) timers on
// the given spawner. The deployment passes a function that creates a
// daemon thread in the right process.
func (st *Stack) StartTimers(spawn func(name string, body func(t *sim.Proc)) *sim.Proc) {
	st.startTimers(spawn, nil)
}

// StartTimers also ages the ARP table on the slow tick.
func (st *Control) StartTimers(spawn func(name string, body func(t *sim.Proc)) *sim.Proc) {
	st.startTimers(spawn, st.arp)
}

// startTimers runs arp's timo (if any) last on every slow tick, under the
// same hold of the protocol lock as TCP's. A tick its idle predicate
// calls a no-op never resumes the thread (sim.Proc.SleepIdle).
func (st *Stack) startTimers(spawn func(name string, body func(t *sim.Proc)) *sim.Proc, arp *arpEngine) {
	fastIdle := st.fastTickIdle
	slowIdle := func() bool { return st.slowTickIdle(arp) }
	spawn(st.cfg.Name+".tcp-fast", func(t *sim.Proc) {
		for !st.timersStopped {
			t.SleepIdle(tcpFastInterval, fastIdle)
			if st.timersStopped {
				return
			}
			st.lock(t)
			st.tcpFastTimo(t)
			st.unlock()
		}
	})
	spawn(st.cfg.Name+".tcp-slow", func(t *sim.Proc) {
		for !st.timersStopped {
			t.SleepIdle(tcpSlowInterval, slowIdle)
			if st.timersStopped {
				return
			}
			st.lock(t)
			st.tcpSlowTimo(t)
			for _, r := range st.reasms { // expire stale reassembly state
				st.Stats.IPReasmTimeout.Add(uint64(r.tick()))
			}
			if arp != nil {
				arp.timo(t)
			}
			st.unlock()
		}
	})
}

// StopTimers halts the timer threads (used when a process exits).
func (st *Stack) StopTimers() { st.timersStopped = true }

// Input processes one received frame on the calling thread: a library's
// receive thread calls it per packet its session filter delivered, so
// only IP arrives here. owned is the delivery's simnet.Frame.Owned: an
// owned frame's storage goes back to mbuf's pools once nothing keeps its
// bytes (see rxFrame).
func (st *Stack) Input(t *sim.Proc, frame []byte, owned bool) {
	st.lock(t)
	defer st.unlock()
	st.rx.frame, st.rx.owned = frame, owned
	if eh, err := wire.UnmarshalEth(frame); err != nil || eh.Type != wire.EtherTypeIPv4 {
		st.Stats.Drops.Inc()
	} else {
		st.ipInput(t, eh, frame[wire.EthHeaderLen:])
	}
	st.rx.done()
}

// Input also answers ARP; the server's network thread or the kernel's
// software-interrupt thread calls it with every frame the host keeps.
func (st *Control) Input(t *sim.Proc, frame []byte, owned bool) {
	if eh, err := wire.UnmarshalEth(frame); err != nil || eh.Type != wire.EtherTypeARP {
		st.Stack.Input(t, frame, owned)
		return
	}
	st.lock(t)
	defer st.unlock()
	st.arp.input(t, frame[wire.EthHeaderLen:])
}

// iss generates an initial send sequence number.
func (st *Stack) iss() uint32 {
	st.issSeed += 64000 + uint32(st.rng.Intn(64000))
	return st.issSeed
}

func (st *Stack) nextIPID() uint16 {
	st.ipID++
	return st.ipID
}

// lookup finds the socket for an incoming segment: exact 4-tuple first,
// then wildcard remote (listeners / unconnected UDP), then wildcard
// local IP as well.
func (st *Stack) lookup(proto uint8, local, remote Addr) *Socket {
	if s, ok := st.conns[tuple{proto, local, remote}]; ok {
		return s
	}
	if s, ok := st.binds[tuple{proto, local, Addr{}}]; ok {
		return s
	}
	if s, ok := st.binds[tuple{proto, Addr{IP: wire.IPAddr{}, Port: local.Port}, Addr{}}]; ok {
		return s
	}
	return nil
}

// file enters s in a demultiplexing table (conns or binds) under key,
// displacing whatever the key named; unfile removes s from under key,
// and leaves an entry that names another socket alone.
func (st *Stack) file(m map[tuple]*Socket, key tuple, s *Socket) {
	st.unfile(m, key, m[key])
	m[key] = s
	if s.filed++; s.filed == 1 {
		i, _ := slices.BinarySearchFunc(st.socks, s.uid, (*Socket).cmpUID)
		st.socks = slices.Insert(st.socks, i, s) // an append for a new socket
	}
}

func (st *Stack) unfile(m map[tuple]*Socket, key tuple, s *Socket) {
	if s == nil || m[key] != s {
		return
	}
	delete(m, key)
	if s.filed--; s.filed == 0 {
		i, _ := slices.BinarySearchFunc(st.socks, s.uid, (*Socket).cmpUID)
		st.socks = slices.Delete(st.socks, i, i+1)
	}
}

func (s *Socket) cmpUID(uid uint64) int { return cmp.Compare(s.uid, uid) }

const (
	tcpFastInterval = 200 * time.Millisecond
	tcpSlowInterval = 500 * time.Millisecond
)
