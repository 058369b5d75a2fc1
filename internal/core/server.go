// Package core implements the paper's contribution: protocol service
// decomposition. Network protocols are split between
//
//   - a protocol library linked into each application (Library), which
//     owns the critical path — send and receive run entirely in the
//     application's address space against a migrated session, reading
//     packets from a per-session kernel packet-filter endpoint — and
//
//   - an operating-system server (Server), which owns everything else:
//     the port namespace, connection establishment and teardown, shared
//     metastate (ARP, routes) with library-cache invalidation callbacks,
//     session migration, the select cooperation, fork support, orphaned-
//     session abort on process death, and exceptional packets (ARP
//     traffic, IP fragments, anything no session filter claims).
//
// Table 1 of the paper maps the socket interface onto this split; the
// Library and Server types implement that table.
package core

import (
	"fmt"
	"time"

	"repro/internal/costs"
	"repro/internal/kern"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/wire"
)

// SessionID names a network session in the server's tables.
type SessionID int64

// sessionState is where a session is in its life, and so which address
// space manages it (paper §3.2: exactly one at a time). move is its only
// writer; next is its transition table.
type sessionState uint8

const (
	unborn      sessionState = iota // not yet in the server's table
	unnamed                         // a record only: socket, or a failed connect
	named                           // bound; the server socket holds the port
	listening                       // passive; the server accepts its connections
	serverOwned                     // established, or returned for fork or splice
	migrating                       // filter installed, state export in flight
	libOwned                        // its owner library manages it
	returning                       // filter removed, state import in flight (proxy_return)
	aborting                        // filter removed, the orphan's reset in flight (death notice)
	closing                         // close handshake or 2MSL at the server
	reaped                          // out of the table; everything released
)

// next is the transition table: move takes a session from s to t only if
// next[s] has bit t. DESIGN.md §5 names the call behind each edge.
var next = [reaped + 1]uint16{
	unborn:      1 << unnamed,
	unnamed:     1<<unnamed | 1<<named | 1<<serverOwned | 1<<closing | 1<<reaped,
	named:       1<<unnamed | 1<<listening | 1<<serverOwned | 1<<migrating | 1<<closing,
	listening:   1<<listening | 1<<closing,
	serverOwned: 1<<migrating | 1<<closing,
	migrating:   1<<serverOwned | 1<<libOwned,
	libOwned:    1<<returning | 1<<aborting | 1<<reaped,
	returning:   1<<serverOwned | 1<<closing | 1<<reaped,
	aborting:    1 << reaped,
	closing:     1 << reaped,
}

// in reports whether s is one of set, a mask of 1<<state bits.
func (s sessionState) in(set uint16) bool { return set&(1<<s) != 0 }

// session is the server's record of one network session (the 3-tuple plus
// management state). The server tracks every session for its whole
// lifetime, even while the application manages the protocol.
type session struct {
	id     SessionID
	proto  uint8
	state  sessionState
	local  stack.Addr
	remote stack.Addr

	owner *Library // the library managing it (libOwned)
	refs  int      // descriptor references across processes

	srvSock  *stack.Socket  // server-side socket, while the server manages it
	ep       *kern.Endpoint // application delivery endpoint (migrating, libOwned)
	filterID int            // its packet filter on ep
	portHeld bool           // a reference on its own port, from migration until reaped (see migrate)
}

// System is one host running the decomposed architecture: a kernel with
// the packet-filter interface, one OS server, and any number of
// application libraries.
type System struct {
	// Host's profile prices the protocol libraries and the kernel-side
	// delivery; its recorder, registry scope and routes are every stack's
	// and the server's own (see kern.Host.StackConfig).
	Host   *kern.Host
	Server *Server
}

// NewApp creates an application process with its protocol library and
// returns its socket interface.
func (sys *System) NewApp(name string) socketapi.API { return sys.NewLibrary(name) }

// Kern returns the kernel host the system runs on.
func (sys *System) Kern() *kern.Host { return sys.Host }

// traceOn reports whether core-layer tracing is live for this server.
func (srv *Server) traceOn() bool { return srv.sys.Host.Trace.On(trace.LayerCore) }

// traceEmit records a core-layer event, tagged with the host name, when
// core tracing is on.
func (srv *Server) traceEmit(e trace.Event, name, aux string, a0, a1 int64) {
	if srv.traceOn() {
		srv.sys.Host.Trace.Emit(trace.LayerCore, e, srv.sys.Host.Name, name, aux, a0, a1, 0)
	}
}

// traceSess records a core event about sess under its flow's name, which
// is built only when core tracing is on.
func (srv *Server) traceSess(e trace.Event, sess *session, aux string) {
	if srv.traceOn() {
		srv.traceEmit(e, sessName(sess), aux, int64(sess.id), 0)
	}
}

// protoName renders a transport protocol number for trace records.
func protoName(proto uint8) string {
	switch proto {
	case wire.ProtoTCP:
		return "tcp"
	case wire.ProtoUDP:
		return "udp"
	}
	return "proto?"
}

// sessName renders a session's flow for trace records.
func sessName(sess *session) string {
	if sess.remote.IsZero() {
		return fmt.Sprintf("%v:%d", sess.local.IP, sess.local.Port)
	}
	return fmt.Sprintf("%v:%d>%v:%d", sess.local.IP, sess.local.Port, sess.remote.IP, sess.remote.Port)
}

// Server is the operating-system server.
type Server struct {
	sys   *System
	Proc  *kern.Process
	St    *stack.Control
	Ports *stack.LocalPorts
	svc   *kern.Service

	sessions map[SessionID]*session
	nextSID  SessionID
	libs     []*Library

	// frags holds fragments of datagrams addressed to migrated sessions;
	// the server stack's slow timer ages it, so a datagram that never
	// completes is dropped after the stack's own reassembly timeout and
	// counted in St.Stats.IPReasmTimeout.
	frags *stack.Reassembler

	// Stats.
	Migrations     metrics.Counter
	Returns        metrics.Counter
	OrphansAborted metrics.Counter
	FragForwards   metrics.Counter
	SessionsMade   metrics.Counter // sessions created (socket/accept)
	SessionsReaped metrics.Counter // sessions removed, orphan aborts included
	ConnSetups     metrics.Counter // TCP connections established (accept + connect)
	ConnTeardowns  metrics.Counter // established connections closed normally
}

const serverWorkers = 16 // the proxy service's cap; workers start on demand

// New runs the decomposed architecture on h: the OS server, its stack
// priced by srvProf (the UX server that backs the decomposed system in
// the paper). Applications link their libraries with NewLibrary.
func New(h *kern.Host, srvProf costs.Profile) *System {
	sys := &System{Host: h}
	srv := &Server{
		sys:      sys,
		Proc:     h.NewProcess("os-server"),
		Ports:    stack.NewLocalPorts(),
		sessions: make(map[SessionID]*session),
		nextSID:  1,
	}
	sys.Server = srv

	// The server's fallback endpoint: ARP, fragments, and anything no
	// session filter claims.
	ep := h.NewEndpoint(0)
	if _, err := ep.InstallProgram(kern.CatchAllProgram(), 0); err != nil {
		panic(err)
	}

	srv.St = stack.NewControl(h.StackConfig("os-server", &srvProf, nil), srv.Ports)
	// Packets already queued at the server when a session's filter
	// handoff happens must not be answered with RST/ICMP: the server
	// checks its session table first.
	srv.St.SetOrphanFilter(srv.appSessionMatches)
	srv.frags = srv.St.NewReassembler()
	// Library caches are invalidated whenever shared metastate changes.
	srv.St.ARP().OnChange = func(ip wire.IPAddr) {
		for _, lib := range srv.libs {
			lib.cache.Invalidate(ip)
		}
	}

	ep.Drain(srv.Proc, srv.Proc.Name+".netin", srv.input)
	srv.St.StartTimers(srv.Proc.GoDaemon)
	srv.svc = kern.NewService(srv.Proc, h.Name+".proxy", serverWorkers)
	srv.bindMetrics(h.Metrics().Sub("core"))
	return sys
}

// input handles a frame that fell through to the server's endpoint.
// IP fragments destined for migrated sessions are intercepted and, once a
// datagram completes, re-injected through the kernel filter set so the
// session's filter can claim it (ports are only present in the first
// fragment — the paper's "exceptional packets" case). Everything else
// flows into the server stack, with its ownership; a fragment the
// interception keeps is never handed back, as its reassembler aliases it.
func (srv *Server) input(t *sim.Proc, frame []byte, owned bool) {
	if v, ok := wire.DissectIP(frame); ok && v.IsFragment() {
		// The reassembler speaks the codec's header; unmarshalling it
		// also verifies the header checksum.
		h, _, err := wire.UnmarshalIPv4(frame[v.IPAt:v.End])
		if err == nil && srv.fragIntercept(frame, v, h) {
			return
		}
		// Not ours: the server stack's own reassembly takes it.
	}
	srv.St.Input(t, frame, owned)
}

// fragIntercept collects fragments of datagrams destined for migrated
// sessions. A first fragment (which carries the ports) decides whether
// the datagram belongs to an application session; non-first fragments
// follow the decision made for their datagram. It reports whether it
// kept the fragment (held, or forwarded as the datagram's last piece).
func (srv *Server) fragIntercept(frame []byte, v wire.View, h wire.IPv4Header) bool {
	if !srv.frags.Holds(h) {
		// A non-first fragment of a datagram we are not tracking is the
		// server stack's problem (either its own session, or an ordering
		// we do not handle — the stack's reassembly copes).
		sport, dport, ok := v.Ports(frame)
		if h.FragOff != 0 || !ok || !srv.appSessionMatches(h.Proto, stack.Addr{IP: h.Dst, Port: dport}, stack.Addr{IP: h.Src, Port: sport}) {
			return false
		}
	}
	full, ok := srv.frags.Add(h, frame[v.TPAt:v.End])
	if !ok {
		return true
	}
	srv.FragForwards.Inc()

	// Rebuild an unfragmented frame under the fragment's own Ethernet
	// header and push it back through the kernel filter set; the session's
	// own filter matches it now.
	rebuilt := make([]byte, v.IPAt+wire.IPv4HeaderLen+len(full))
	copy(rebuilt, frame[:v.IPAt])
	h.TotalLen = uint16(wire.IPv4HeaderLen + len(full))
	h.Flags, h.FragOff = 0, 0
	h.Marshal(rebuilt[v.IPAt:])
	copy(rebuilt[v.IPAt+wire.IPv4HeaderLen:], full)
	srv.sys.Host.Inject(rebuilt)
	return true
}

// appSessionMatches reports whether a migrated session would claim the
// given flow. It does while a library manages the session and while the
// session comes back: segments racing the hand-back must not be answered
// with RST.
func (srv *Server) appSessionMatches(proto uint8, local, remote stack.Addr) bool {
	for _, sess := range srv.sessions {
		if sess.proto == proto && sess.state.in(1<<libOwned|1<<returning|1<<aborting) &&
			sess.local.Port == local.Port && (sess.remote.IsZero() || sess.remote == remote) {
			return true
		}
	}
	return false
}

// newSession allocates a session record.
func (srv *Server) newSession(proto uint8) *session {
	sess := &session{id: srv.nextSID, proto: proto, refs: 1}
	srv.nextSID++
	srv.move(sess, unnamed)
	return sess
}

// move takes sess to state to, the only write of sess.state, and does
// what the edge entails: the table entry, the packet filter, the
// counters, the core trace record and the port reference. An edge next
// does not allow is a bug in the server, so move panics on one.
func (srv *Server) move(sess *session, to sessionState) {
	from := sess.state
	if !to.in(next[from]) {
		panic(fmt.Sprintf("core: session %d: no edge from state %d to %d", sess.id, from, to))
	}
	sess.state = to
	switch to {
	case unnamed:
		if from != unborn {
			sess.srvSock, sess.local = nil, stack.Addr{} // a failed connect consumed the socket
			return
		}
		srv.sessions[sess.id] = sess
		srv.SessionsMade.Inc()
		srv.traceEmit(trace.EvSession, protoName(sess.proto), "new", int64(sess.id), 0)
	case migrating:
		// The filter goes in before the state comes out, so no segment can
		// fall between the two stacks.
		sess.ep = srv.sys.Host.NewEndpoint(0)
		sess.installFilter()
	case serverOwned:
		srv.dropAppSide(sess) // backing out of a failed export; nothing to drop on the other ways in
	case libOwned:
		sess.srvSock = nil
		srv.Migrations.Inc()
		srv.traceSess(trace.EvMigrate, sess, "to-app")
	case returning:
		// The filter comes out before the state goes in; appSessionMatches
		// keeps the server quiet until it lands.
		srv.dropAppSide(sess)
		srv.Returns.Inc()
		srv.traceSess(trace.EvMigrate, sess, "to-server")
	case aborting:
		srv.dropAppSide(sess)
		srv.OrphansAborted.Inc()
		srv.traceSess(trace.EvOrphanAbort, sess, "")
	case reaped:
		delete(srv.sessions, sess.id)
		srv.SessionsReaped.Inc()
		srv.dropAppSide(sess)
		port := sess.local.Port
		if from == aborting {
			// Quarantine the orphan's port against rebinding while stale
			// segments may still arrive (paper §3.2).
			if sess.portHeld {
				srv.Ports.Release(wire.ProtoTCP, port)
			}
			srv.Ports.Quarantine(wire.ProtoTCP, port)
			srv.traceEmit(trace.EvPortOp, "tcp", "quarantine", int64(port), 0)
			srv.sys.Host.Sim.After(2*30*time.Second, func() { srv.Ports.Unquarantine(wire.ProtoTCP, port) })
			return
		}
		if sess.proto == wire.ProtoTCP && !sess.remote.IsZero() {
			srv.ConnTeardowns.Inc()
		}
		srv.traceSess(trace.EvConnTeardown, sess, "")
		if sess.portHeld {
			srv.Ports.Release(sess.proto, port)
			srv.traceEmit(trace.EvPortOp, protoName(sess.proto), "release", int64(port), 0)
		}
	}
}

// pokeSelectors wakes every library's select machinery; sockets recheck
// readiness themselves (the proxy_status notification of Table 1).
func (srv *Server) pokeSelectors() {
	for _, lib := range srv.libs {
		lib.selCond.Broadcast()
	}
}

// watchServerSocket wires a server-located socket's status changes into
// session lifecycle management and the select cooperation.
func (srv *Server) watchServerSocket(sess *session) {
	sess.srvSock.Notify = func() {
		srv.pokeSelectors()
		srv.reapIfClosed(sess)
	}
}

// reapIfClosed reaps a session closing at the server once its socket is
// closed (a UDP socket, a listener, or a TCP connection past 2MSL).
func (srv *Server) reapIfClosed(sess *session) {
	if sess.state == closing && stack.TCPStateOf(sess.srvSock) == "CLOSED" {
		srv.move(sess, reaped)
	}
}

// dropAppSide removes the session's packet filter, application endpoint
// and owner, so traffic falls back to the server's catch-all.
func (srv *Server) dropAppSide(sess *session) {
	if sess.ep != nil {
		sess.ep.Close() // also uninstalls the session filter
		sess.ep, sess.filterID, sess.owner = nil, 0, nil
	}
}

// Sessions returns the number of live sessions (tests and diagnostics).
func (srv *Server) Sessions() int { return len(srv.sessions) }
