package core

import (
	"time"

	"repro/internal/filter"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The proxy interface of Table 1: what a protocol library asks of the
// operating-system server. Each call below runs inside a server worker
// thread, carried there by Library.proxy. Data movement on sessions the
// server manages (listeners, sessions returned for fork or splice) is
// not here: that is the shared socket layer running against the server's
// stack behind the same crossing.

// bound is proxy_bind's reply: the endpoint's name, and either the
// packet-filter endpoint of a session that migrated at once (UDP) or
// the server socket that keeps managing it (TCP).
type bound struct {
	local stack.Addr
	ep    *kern.Endpoint
	sock  *stack.Socket
}

// migration is what proxy_connect and proxy_accept hand the library:
// the session's names, its exported protocol state (TCP), the endpoint
// its packet filter now delivers to, and the peer's link address to
// warm the metastate cache with.
type migration struct {
	sid           SessionID
	local, remote stack.Addr
	state         *stack.TCPSessionState
	ep            *kern.Endpoint
	remoteMAC     wire.MAC
}

// orphan is one TCP session a dead process held, with the protocol
// state the kernel scavenged from its address space.
type orphan struct {
	sid   SessionID
	state *stack.TCPSessionState
}

func (srv *Server) get(sid SessionID) (*session, error) {
	sess, ok := srv.sessions[sid]
	if !ok {
		return nil, socketapi.ErrBadFD
	}
	return sess, nil
}

// proxySocket creates a session record; no server socket exists until
// the session is named or connected.
func (srv *Server) proxySocket(proto uint8) SessionID { return srv.newSession(proto).id }

// proxyBind names the session's local endpoint. UDP sessions migrate to
// the application at bind (Table 1).
func (srv *Server) proxyBind(sid SessionID, addr stack.Addr, lib *Library) (bound, error) {
	sess, err := srv.get(sid)
	if err != nil {
		return bound{}, err
	}
	if sess.local.Port != 0 {
		return bound{}, socketapi.ErrInvalid
	}
	if err := srv.name(sess, addr); err != nil {
		return bound{}, err
	}
	if srv.traceOn() {
		srv.traceEmit(trace.EvPortOp, protoName(sess.proto), "bind", int64(sess.local.Port), int64(sess.id))
	}
	if sess.proto == wire.ProtoUDP {
		ep, err := srv.migrateUDP(sess, lib)
		return bound{local: sess.local, ep: ep}, err
	}
	return bound{local: sess.local, sock: sess.srvSock}, nil
}

// proxyListen makes a bound TCP session passive; the operating system
// awaits its connections.
func (srv *Server) proxyListen(sid SessionID, backlog int) error {
	sess, err := srv.get(sid)
	if err != nil {
		return err
	}
	if sess.proto != wire.ProtoTCP {
		return socketapi.ErrNotSupported
	}
	if sess.srvSock == nil {
		return socketapi.ErrInvalid // unbound, or connected and migrated away
	}
	if err := srv.St.Listen(sess.srvSock, backlog); err != nil {
		return err
	}
	sess.listening = true
	srv.watchServerSocket(sess)
	return nil
}

// proxyAccept waits for an established connection and migrates it into
// the application.
func (srv *Server) proxyAccept(t *sim.Proc, sid SessionID, lib *Library) (migration, error) {
	sess, err := srv.get(sid)
	if err != nil {
		return migration{}, err
	}
	if !sess.listening {
		return migration{}, socketapi.ErrInvalid
	}
	ns, err := srv.St.Accept(t, sess.srvSock)
	if err != nil {
		return migration{}, err
	}
	newSess := srv.newSession(wire.ProtoTCP)
	newSess.local = ns.LocalAddr()
	newSess.remote = ns.RemoteAddr()
	newSess.srvSock = ns
	return srv.established(t, newSess, "accept", lib)
}

// established finishes either open: count it, resolve the peer for the
// library's cache, and migrate the session into the application.
func (srv *Server) established(t *sim.Proc, sess *session, how string, lib *Library) (migration, error) {
	srv.ConnSetups.Inc()
	if srv.traceOn() {
		srv.traceEmit(trace.EvConnSetup, sessName(sess), how, int64(sess.id), 0)
	}
	mac, _ := srv.St.ARP().WaitResolve(t, srv.St.NextHop(sess.remote.IP), 10*time.Second)
	ep, state, err := srv.migrateTCP(t, sess, lib)
	return migration{sid: sess.id, local: sess.local, remote: sess.remote, state: state, ep: ep, remoteMAC: mac}, err
}

// proxyReturn takes a session back from the application (see
// returnSession) and reports the server socket that manages it now —
// nil once a closing session has been dealt with.
func (srv *Server) proxyReturn(t *sim.Proc, sid SessionID, state *stack.TCPSessionState, closing bool) (*stack.Socket, error) {
	sess, err := srv.get(sid)
	if err != nil {
		return nil, err
	}
	if err := srv.returnSession(t, sess, state, closing); err != nil || closing {
		return nil, err
	}
	return sess.srvSock, nil
}

// proxyDup adds a descriptor reference to a session (fork).
func (srv *Server) proxyDup(sid SessionID) error {
	sess, err := srv.get(sid)
	if err == nil {
		sess.refs++
	}
	return err
}

// proxyRelease drops a descriptor reference; the last one closes a
// server-managed session.
func (srv *Server) proxyRelease(t *sim.Proc, sid SessionID) error {
	sess, err := srv.get(sid)
	if err != nil {
		return err
	}
	if sess.refs--; sess.refs > 0 {
		return nil
	}
	return srv.closeServerSession(t, sess)
}

// proxyStatus is the server's half of the cooperative select: the
// readiness of sessions it manages.
func (srv *Server) proxyStatus(sids []SessionID) (readable, writable []bool) {
	readable, writable = make([]bool, len(sids)), make([]bool, len(sids))
	for i, sid := range sids {
		sess, ok := srv.sessions[sid]
		if !ok {
			readable[i], writable[i] = true, true // error state: select returns ready
		} else if sess.srvSock != nil {
			readable[i], writable[i] = sess.srvSock.Readable(), sess.srvSock.Writable()
		}
	}
	return readable, writable
}

// proxySetOpt and proxyGetOpt serve a session the library holds no
// socket for yet: setting an option before bind or connect is what first
// makes the server create one (see socketOf).
func (srv *Server) proxySetOpt(sid SessionID, opt, value int) error {
	sess, err := srv.get(sid)
	if err != nil {
		return err
	}
	return srv.St.SetOption(srv.socketOf(sess), opt, value)
}

func (srv *Server) proxyGetOpt(sid SessionID, opt int) (int, error) {
	sess, err := srv.get(sid)
	if err != nil {
		return 0, err
	}
	return srv.St.GetOption(srv.socketOf(sess), opt)
}

// proxyARP resolves a next hop from the server's authoritative table.
func (srv *Server) proxyARP(t *sim.Proc, ip wire.IPAddr) (wire.MAC, error) {
	mac, ok := srv.St.ARP().WaitResolve(t, ip, 10*time.Second)
	if !ok {
		return mac, socketapi.ErrHostUnreach
	}
	return mac, nil
}

// proxyConnect performs the server side of an active open: name the
// endpoints, run the handshake in the server, then migrate the
// established session into the application.
func (srv *Server) proxyConnect(t *sim.Proc, sid SessionID, raddr stack.Addr, lib *Library) (migration, error) {
	sess, err := srv.get(sid)
	if err != nil {
		return migration{}, err
	}
	switch sess.proto {
	case wire.ProtoUDP:
		// Connect narrows a (possibly already migrated) UDP session to
		// one peer.
		if sess.local.Port == 0 {
			if err := srv.name(sess, stack.Addr{}); err != nil {
				return migration{}, err
			}
			if _, err := srv.migrateUDP(sess, lib); err != nil {
				return migration{}, err
			}
		}
		sess.remote = raddr
		// Replace the session filter with one narrowed to the peer.
		if sess.ep != nil && sess.filterID != 0 {
			sess.ep.RemoveFilter(sess.filterID)
			fid, err := sess.ep.InstallFilter(filter.MatchSpec{
				Proto: wire.ProtoUDP, LocalIP: sess.local.IP, LocalPort: sess.local.Port,
				RemoteIP: raddr.IP, RemotePort: raddr.Port,
			}, sessionFilterPriority)
			if err != nil {
				return migration{}, err
			}
			sess.filterID = fid
		}
		mac, _ := srv.St.ARP().WaitResolve(t, srv.St.NextHop(raddr.IP), 10*time.Second)
		return migration{local: sess.local, remote: sess.remote, ep: sess.ep, remoteMAC: mac}, nil

	case wire.ProtoTCP:
		if sess.loc != atServer {
			return migration{}, socketapi.ErrIsConn
		}
		if err := srv.St.Connect(t, srv.socketOf(sess), raddr); err != nil {
			sess.srvSock = nil
			sess.local = stack.Addr{}
			return migration{}, err
		}
		sess.local = sess.srvSock.LocalAddr()
		sess.remote = sess.srvSock.RemoteAddr()
		return srv.established(t, sess, "connect", lib)
	}
	return migration{}, socketapi.ErrNotSupported
}

// socketOf returns the session's server socket, creating it the first
// time the session needs one. Until bind or connect it is in none of the
// stack's tables, so netstat does not show it.
func (srv *Server) socketOf(sess *session) *stack.Socket {
	if sess.srvSock == nil {
		sess.srvSock = srv.St.NewSocket(sess.proto)
	}
	return sess.srvSock
}

// name binds the session's server socket to addr and records the
// endpoint's name.
func (srv *Server) name(sess *session, addr stack.Addr) error {
	sock := srv.socketOf(sess)
	if err := srv.St.Bind(sock, addr); err != nil {
		return err
	}
	sess.local = sock.LocalAddr()
	sess.local.IP = srv.St.LocalIP()
	return nil
}

const sessionFilterPriority = 10

// migrateUDP moves a bound UDP session into the application: install the
// session's packet filter, detach the server socket (keeping the port
// reservation alive in the namespace), and hand the endpoint over.
func (srv *Server) migrateUDP(sess *session, lib *Library) (*kern.Endpoint, error) {
	ep := srv.sys.Host.NewEndpoint(0)
	spec := filter.MatchSpec{Proto: wire.ProtoUDP, LocalIP: sess.local.IP, LocalPort: sess.local.Port}
	if !sess.remote.IsZero() {
		spec.RemoteIP, spec.RemotePort = sess.remote.IP, sess.remote.Port
	}
	fid, err := ep.InstallFilter(spec, sessionFilterPriority)
	if err != nil {
		ep.Close()
		return nil, err
	}
	srv.St.DropUDPSession(sess.srvSock)
	sess.srvSock = nil
	sess.ep = ep
	sess.filterID = fid
	sess.portHeld = true
	sess.loc = atApp
	sess.owner = lib
	srv.Migrations.Inc()
	if srv.traceOn() {
		srv.traceEmit(trace.EvMigrate, sessName(sess), "to-app", int64(sess.id), 0)
	}
	return ep, nil
}

// migrateTCP moves an established TCP session into the application. The
// packet filter is installed before the state is exported so no segment
// can fall between the two stacks.
func (srv *Server) migrateTCP(t *sim.Proc, sess *session, lib *Library) (*kern.Endpoint, *stack.TCPSessionState, error) {
	ep := srv.sys.Host.NewEndpoint(0)
	fid, err := ep.InstallFilter(filter.MatchSpec{
		Proto: wire.ProtoTCP, LocalIP: sess.local.IP, LocalPort: sess.local.Port,
		RemoteIP: sess.remote.IP, RemotePort: sess.remote.Port,
	}, sessionFilterPriority)
	if err != nil {
		ep.Close()
		return nil, nil, err
	}
	hadPort := sess.srvSock != nil && !sess.listening
	state, err := srv.St.ExportTCPSession(t, sess.srvSock)
	if err != nil {
		ep.Close()
		return nil, nil, err
	}
	// An actively-opened session reserved its own (possibly ephemeral)
	// port; an accepted session shares its listener's. Either way the
	// namespace entry survives migration, held by the server.
	if hadPort && sess.local.Port != 0 && srv.Ports.InUse(wire.ProtoTCP, sess.local.Port) {
		sess.portHeld = true
	}
	sess.srvSock = nil
	sess.ep = ep
	sess.filterID = fid
	sess.loc = atApp
	sess.owner = lib
	srv.Migrations.Inc()
	if srv.traceOn() {
		srv.traceEmit(trace.EvMigrate, sessName(sess), "to-app", int64(sess.id), 0)
	}
	return ep, state, nil
}

// returnSession migrates a session back from the application (Table 1's
// proxy_return): for close, the server runs the shutdown handshake and
// 2MSL wait; for fork, the server simply manages the session from now on.
func (srv *Server) returnSession(t *sim.Proc, sess *session, state *stack.TCPSessionState, closing bool) error {
	if sess.loc != atApp {
		return socketapi.ErrInvalid
	}
	if sess.proto == wire.ProtoTCP {
		// The blob comes from the library's address space: refuse one that
		// is not this session's before any table changes hands.
		if err := state.Check(sess.local, sess.remote); err != nil {
			return err
		}
	}
	srv.Returns.Inc()
	srv.dropAppSide(sess)
	sess.loc = atServer
	sess.owner = nil
	if srv.traceOn() {
		srv.traceEmit(trace.EvMigrate, sessName(sess), "to-server", int64(sess.id), 0)
	}
	switch sess.proto {
	case wire.ProtoUDP:
		if closing {
			srv.reapSession(sess)
			return nil
		}
		sess.srvSock = srv.St.AdoptUDPSession(sess.local, sess.remote)
		srv.watchServerSocket(sess)
		return nil
	case wire.ProtoTCP:
		sess.srvSock = srv.St.ImportTCPSession(t, state)
		srv.watchServerSocket(sess)
		if closing {
			sess.closing = true
			srv.St.Close(t, sess.srvSock)
			if stack.TCPStateOf(sess.srvSock) == "CLOSED" {
				srv.reapSession(sess)
			}
		}
		return nil
	}
	return socketapi.ErrNotSupported
}

// closeServerSession closes a server-located session once its last
// descriptor reference is gone.
func (srv *Server) closeServerSession(t *sim.Proc, sess *session) error {
	if sess.srvSock == nil {
		srv.reapSession(sess)
		return nil
	}
	sess.closing = true
	err := srv.St.Close(t, sess.srvSock)
	if sess.proto == wire.ProtoUDP || sess.listening || stack.TCPStateOf(sess.srvSock) == "CLOSED" {
		srv.reapSession(sess)
	}
	return err
}

// deathNotice handles the kernel's notification that a process died with
// live sessions (paper §3.2 "unexpected shutdown"): the server aborts the
// connections with resets and quarantines their ports so they cannot be
// rebound while stale segments may still arrive. Sessions arrive in the
// dead process's descriptor order, so the resets go out in the same
// sequence on every same-seed run.
func (srv *Server) deathNotice(t *sim.Proc, dead *Library, tcp []orphan, udp []SessionID) {
	for _, o := range tcp {
		sid, state := o.sid, o.state
		sess, ok := srv.sessions[sid]
		if !ok || sess.owner != dead {
			continue
		}
		srv.OrphansAborted.Inc()
		if srv.traceOn() {
			srv.traceEmit(trace.EvOrphanAbort, sessName(sess), "", int64(sid), 0)
		}
		srv.dropAppSide(sess)
		// A blob that is not this session's (see returnSession) is not
		// installed; the peer gets no RST and times out instead.
		if state.Check(sess.local, sess.remote) == nil {
			srv.St.Abort(t, srv.St.ImportTCPSession(t, state)) // RST to the remote peer
		}
		port := sess.local.Port
		held := sess.portHeld
		sess.portHeld = false // quarantine supersedes the plain release
		delete(srv.sessions, sid)
		srv.SessionsReaped.Inc()
		if held && port != 0 {
			srv.Ports.Release(wire.ProtoTCP, port)
			srv.Ports.Quarantine(wire.ProtoTCP, port)
			if srv.traceOn() {
				srv.traceEmit(trace.EvPortOp, "tcp", "quarantine", int64(port), 0)
			}
			srv.sys.Host.Sim.After(2*30*time.Second, func() {
				srv.Ports.Unquarantine(wire.ProtoTCP, port)
			})
		}
	}
	for _, sid := range udp {
		sess, ok := srv.sessions[sid]
		if !ok || sess.owner != dead {
			continue
		}
		srv.reapSession(sess)
	}
	// Unregister the dead library from metastate callbacks.
	for i, lib := range srv.libs {
		if lib == dead {
			srv.libs = append(srv.libs[:i], srv.libs[i+1:]...)
			break
		}
	}
}
