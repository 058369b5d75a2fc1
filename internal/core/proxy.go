package core

import (
	"slices"
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

// proxyOp is a Table 1 operation, as a crossing counts it.
type proxyOp uint8

const (
	opSocket proxyOp = iota
	opBind
	opConnect
	opListen
	opAccept
	opReturn
	opRelease
	opDup
	opSetOpt
	opGetOpt
	opStatus
	opARP
	opData  // a socket call on a session the server manages (send, recv, ...)
	opDeath // the kernel's notice of the process's death
	numOps
)

var proxyOpNames = [numOps]string{"socket", "bind", "connect", "listen", "accept", "return",
	"release", "dup", "setopt", "getopt", "status", "arp", "data", "death"}

// ctlCall is one control crossing: the operation, the arguments that go
// over and the results that come back, with the blob of a migration in
// either direction embedded. Its body is bound as a method value once,
// when the record is made, so a crossing builds no closure. Records
// circulate through their Library's calls, a sim.Free: two threads of a
// process can be inside crossings at once, and each holds a record of
// its own. A record put back twice panics under the race detector.
type ctlCall struct {
	lib *Library
	op  proxyOp

	sid      SessionID // the session named; socket's result
	proto    uint8
	closing  bool
	n, value int         // listen's backlog; the option and its value
	addr     stack.Addr  // bind's name, connect's peer
	ip       wire.IPAddr // arp's next hop
	sids     []SessionID // status

	bound              bound
	mig                migration
	sock               *stack.Socket // return's server socket
	readable, writable []bool
	mac                wire.MAC
	err                error

	state stack.TCPSessionState // connect's and accept's blob in, return's out
	run   func(on *sim.Proc)
}

// exec runs c's operation on a server worker thread.
func (c *ctlCall) exec(on *sim.Proc) {
	srv := c.lib.srv
	switch c.op {
	case opSocket:
		c.sid = srv.proxySocket(c.proto)
	case opBind:
		c.bound, c.err = srv.proxyBind(on, c.sid, c.addr, c.lib)
	case opConnect:
		c.mig, c.err = srv.proxyConnect(on, c.sid, c.addr, c.lib, &c.state)
	case opListen:
		c.err = srv.proxyListen(c.sid, c.n)
	case opAccept:
		c.mig, c.err = srv.proxyAccept(on, c.sid, c.lib, &c.state)
	case opReturn:
		c.sock, c.err = srv.proxyReturn(on, c.sid, &c.state, c.closing)
	case opRelease:
		c.err = srv.proxyRelease(on, c.sid)
	case opDup:
		c.err = srv.proxyDup(c.sid)
	case opSetOpt:
		c.err = srv.proxySetOpt(c.sid, c.n, c.value)
	case opGetOpt:
		c.value, c.err = srv.proxyGetOpt(c.sid, c.n)
	case opStatus:
		c.readable, c.writable = srv.proxyStatus(c.sids)
	case opARP:
		c.mac, c.err = srv.proxyARP(on, c.ip)
	}
}

// getCall takes a record for a crossing of op.
func (lib *Library) getCall(op proxyOp) *ctlCall {
	c := lib.calls.Get()
	if c == nil {
		c = &ctlCall{lib: lib}
		c.run = c.exec
	}
	c.op = op
	return c
}

// putCall clears the record, so no session, socket or chain it named
// outlives the call, and hands it back. Its blob is empty by then: an
// import or a refusal's Release took what a migration carried.
func (lib *Library) putCall(c *ctlCall) {
	*c = ctlCall{lib: c.lib, run: c.run}
	lib.calls.Put(c)
}

// bound is proxy_bind's reply: the endpoint's name, and either the
// packet-filter endpoint of a session that migrated at once (UDP) or
// the server socket that keeps managing it (TCP).
type bound struct {
	local stack.Addr
	ep    *kern.Endpoint
	sock  *stack.Socket
}

// migration is what proxy_connect and proxy_accept hand the library
// beside the exported protocol state (TCP, in the call's blob): the
// session's names, the endpoint its packet filter now delivers to, and
// the peer's link address to warm the metastate cache with.
type migration struct {
	sid           SessionID
	local, remote stack.Addr
	ep            *kern.Endpoint
	remoteMAC     wire.MAC
}

// orphan is one TCP session a dead process held, with the protocol
// state the kernel scavenged from its address space.
type orphan struct {
	sid   SessionID
	state *stack.TCPSessionState
}

// get finds a session a descriptor can name: none is left on one
// closing at the server.
func (srv *Server) get(sid SessionID) (*session, error) {
	sess, ok := srv.sessions[sid]
	if !ok || sess.state == closing {
		return nil, socketapi.ErrBadFD
	}
	return sess, nil
}

// proxySocket creates a session record; no server socket exists until
// the session is named or connected.
func (srv *Server) proxySocket(proto uint8) SessionID { return srv.newSession(proto).id }

// proxyBind names the session's local endpoint. UDP sessions migrate to
// the application at bind (Table 1).
func (srv *Server) proxyBind(t *sim.Proc, sid SessionID, addr stack.Addr, lib *Library) (bound, error) {
	sess, err := srv.get(sid)
	if err != nil {
		return bound{}, err
	}
	if sess.state != unnamed {
		return bound{}, socketapi.ErrInvalid
	}
	if err := srv.name(sess, addr); err != nil {
		return bound{}, err
	}
	srv.traceEmit(trace.EvPortOp, protoName(sess.proto), "bind", int64(sess.local.Port), int64(sess.id))
	if sess.proto == wire.ProtoUDP {
		srv.migrate(t, sess, lib, true, nil)
	}
	return bound{local: sess.local, ep: sess.ep, sock: sess.srvSock}, nil
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
	if !sess.state.in(1<<named | 1<<listening) {
		return socketapi.ErrInvalid // unbound, or connected
	}
	if err := srv.St.Listen(sess.srvSock, backlog); err != nil {
		return err
	}
	srv.move(sess, listening)
	srv.watchServerSocket(sess)
	return nil
}

// proxyAccept waits for an established connection and migrates it into
// the application, its state exported into dst.
func (srv *Server) proxyAccept(t *sim.Proc, sid SessionID, lib *Library, dst *stack.TCPSessionState) (migration, error) {
	sess, err := srv.get(sid)
	if err != nil {
		return migration{}, err
	}
	if sess.state != listening {
		return migration{}, socketapi.ErrInvalid
	}
	ns, err := srv.St.Accept(t, sess.srvSock)
	if err != nil {
		return migration{}, err
	}
	newSess := srv.newSession(wire.ProtoTCP)
	newSess.local, newSess.remote, newSess.srvSock = ns.LocalAddr(), ns.RemoteAddr(), ns
	srv.move(newSess, serverOwned)
	return srv.established(t, newSess, "accept", lib, dst)
}

// established finishes either open: count it, resolve the peer for the
// library's cache, and migrate the session into the application through
// dst.
func (srv *Server) established(t *sim.Proc, sess *session, how string, lib *Library, dst *stack.TCPSessionState) (migration, error) {
	srv.ConnSetups.Inc()
	srv.traceSess(trace.EvConnSetup, sess, how)
	mac, _ := srv.St.ARP().WaitResolve(t, srv.St.NextHop(sess.remote.IP), 10*time.Second)
	if srv.closedUnder(t, sess) {
		return migration{}, socketapi.ErrBadFD
	}
	err := srv.migrate(t, sess, lib, how == "connect", dst)
	return migration{sid: sess.id, local: sess.local, remote: sess.remote, ep: sess.ep, remoteMAC: mac}, err
}

// proxyReturn migrates a session back from the application (Table 1's
// proxy_return): for close, the server runs the shutdown handshake and
// 2MSL wait; for fork or splice, it manages the session from now on and
// reports the server socket that does.
func (srv *Server) proxyReturn(t *sim.Proc, sid SessionID, state *stack.TCPSessionState, closing bool) (*stack.Socket, error) {
	sess, err := srv.get(sid)
	// The blob comes from the library's address space: refuse one that is
	// not this session's before any table changes hands, and hand its
	// storage back.
	if err == nil && (sess.state != libOwned || sess.proto == wire.ProtoTCP && state.Check(sess.local, sess.remote) != nil) {
		err = socketapi.ErrInvalid
	}
	if err != nil {
		state.Release()
		return nil, err
	}
	srv.move(sess, returning)
	switch {
	case sess.proto == wire.ProtoUDP && closing:
		srv.move(sess, reaped)
		return nil, nil
	case sess.proto == wire.ProtoUDP:
		sess.srvSock = srv.St.AdoptUDPSession(sess.local, sess.remote)
	default:
		sess.srvSock = srv.St.ImportTCPSession(t, state)
	}
	srv.watchServerSocket(sess)
	if closing {
		return nil, srv.shut(t, sess)
	}
	srv.move(sess, serverOwned)
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

// proxyRelease drops a descriptor reference; the last one closes the
// session.
func (srv *Server) proxyRelease(t *sim.Proc, sid SessionID) error {
	sess, err := srv.get(sid)
	if err != nil {
		return err
	}
	if sess.refs--; sess.refs > 0 || sess.state == migrating {
		return nil // a migrating session's export in flight refuses it (see migrate)
	}
	if sess.state == libOwned || sess.state == unnamed && sess.srvSock == nil {
		srv.move(sess, reaped) // its export failed, or it never had a socket
		return nil
	}
	return srv.shut(t, sess)
}

// closedUnder reports whether the last descriptor naming sess was closed,
// on another thread of its process, while an open of it blocked. The open
// is then refused: the server shuts the session, unless the close already
// has, and reaps it once its socket is closed.
func (srv *Server) closedUnder(t *sim.Proc, sess *session) bool {
	if sess.refs > 0 {
		return false
	}
	srv.watchServerSocket(sess)
	if sess.state == serverOwned {
		srv.shut(t, sess)
	}
	srv.reapIfClosed(sess)
	return true
}

// proxyStatus is the server's half of the cooperative select: the
// readiness of sessions it manages.
func (srv *Server) proxyStatus(sids []SessionID) (readable, writable []bool) {
	readable, writable = make([]bool, len(sids)), make([]bool, len(sids))
	for i, sid := range sids {
		switch sess, ok := srv.sessions[sid]; {
		case !ok:
			readable[i], writable[i] = true, true // error state: select returns ready
		case sess.state == unnamed:
			writable[i] = sess.proto == wire.ProtoUDP // sendto names it
		case sess.state.in(1<<named | 1<<listening | 1<<serverOwned):
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
func (srv *Server) proxyConnect(t *sim.Proc, sid SessionID, raddr stack.Addr, lib *Library, dst *stack.TCPSessionState) (migration, error) {
	sess, err := srv.get(sid)
	if err != nil {
		return migration{}, err
	}
	switch sess.proto {
	case wire.ProtoUDP:
		// Connect narrows a (possibly already migrated) UDP session to
		// one peer.
		if sess.state == unnamed {
			if err := srv.name(sess, stack.Addr{}); err != nil {
				return migration{}, err
			}
			srv.migrate(t, sess, lib, true, nil)
		}
		if sess.state == serverOwned { // returned for fork: the server's socket takes the peer
			if err := srv.St.Connect(t, sess.srvSock, raddr); err != nil {
				return migration{}, err
			}
			sess.remote = raddr
			return migration{local: sess.local, remote: raddr}, nil
		}
		// Replace the session filter with one narrowed to the peer.
		sess.remote = raddr
		sess.ep.RemoveFilter(sess.filterID)
		sess.installFilter()
		mac, _ := srv.St.ARP().WaitResolve(t, srv.St.NextHop(raddr.IP), 10*time.Second)
		if sess.state != libOwned {
			return migration{}, socketapi.ErrBadFD // another thread closed (or forked) it meanwhile
		}
		return migration{local: sess.local, remote: sess.remote, ep: sess.ep, remoteMAC: mac}, nil

	case wire.ProtoTCP:
		if !sess.state.in(1<<unnamed | 1<<named) {
			return migration{}, socketapi.ErrIsConn
		}
		err := srv.St.Connect(t, srv.socketOf(sess), raddr)
		if srv.closedUnder(t, sess) {
			return migration{}, socketapi.ErrBadFD
		}
		if err != nil {
			srv.move(sess, unnamed)
			return migration{}, err
		}
		sess.local = sess.srvSock.LocalAddr()
		sess.remote = sess.srvSock.RemoteAddr()
		srv.move(sess, serverOwned)
		return srv.established(t, sess, "connect", lib, dst)
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
	srv.move(sess, named)
	return nil
}

const sessionFilterPriority = 10

// installFilter puts the session's packet filter on its endpoint: its
// own port, and its peer's once it has one.
func (sess *session) installFilter() {
	spec := filter.MatchSpec{Proto: sess.proto, LocalIP: sess.local.IP, LocalPort: sess.local.Port}
	if !sess.remote.IsZero() {
		spec.RemoteIP, spec.RemotePort = sess.remote.IP, sess.remote.Port
	}
	fid, err := sess.ep.InstallFilter(spec, sessionFilterPriority)
	if err != nil {
		panic(err) // a compiled match spec always validates
	}
	sess.filterID = fid
}

// migrate moves a session into lib's address space: UDP at bind, TCP once
// established (Table 1). The server socket is detached without releasing
// its port; a session that reserved its own (ownPort) holds that reference
// until it is reaped, and an accepted one shares its listener's. A session
// whose last descriptor closed during the export stays with the server,
// which shuts it (closedUnder). A TCP session's state is exported into
// dst, which holds it only if the migration succeeds.
func (srv *Server) migrate(t *sim.Proc, sess *session, lib *Library, ownPort bool, dst *stack.TCPSessionState) error {
	srv.move(sess, migrating)
	if sess.proto == wire.ProtoUDP {
		srv.St.DropUDPSession(sess.srvSock)
	} else if err := srv.St.ExportTCPSession(t, sess.srvSock, dst); err != nil || sess.refs == 0 {
		if err == nil { // the export waited for the stack, and the close came meanwhile
			sess.srvSock, err = srv.St.ImportTCPSession(t, dst), socketapi.ErrBadFD
		}
		srv.move(sess, serverOwned)
		srv.closedUnder(t, sess)
		return err
	}
	sess.owner, sess.portHeld = lib, ownPort
	srv.move(sess, libOwned)
	return nil
}

// shut closes the server socket of a session no descriptor names any
// more. A TCP connection stays closing through its handshake and 2MSL.
func (srv *Server) shut(t *sim.Proc, sess *session) error {
	srv.move(sess, closing)
	err := srv.St.Close(t, sess.srvSock)
	srv.reapIfClosed(sess)
	return err
}

// deathNotice handles the kernel's notification that a process died with
// live sessions (paper §3.2 "unexpected shutdown"): the server aborts the
// connections with resets and quarantines their ports so they cannot be
// rebound while stale segments may still arrive. Of the rest, a migrated
// UDP session dies with its owner, and the dead process's reference on
// each session the server manages goes as proxy_release would take it
// (BSD exit() closes every descriptor). Sessions arrive in the dead
// process's descriptor order, so the resets go out in the same sequence
// on every same-seed run.
func (srv *Server) deathNotice(t *sim.Proc, dead *Library, tcp []orphan, rest []SessionID) {
	for _, o := range tcp {
		sess, ok := srv.sessions[o.sid]
		if !ok || sess.state != libOwned || sess.owner != dead {
			o.state.Release()
			continue
		}
		srv.move(sess, aborting)
		// A blob that is not this session's (see proxyReturn) is not
		// installed; the peer gets no RST and times out instead.
		if o.state.Check(sess.local, sess.remote) == nil {
			srv.St.Abort(t, srv.St.ImportTCPSession(t, o.state)) // RST to the remote peer
		} else {
			o.state.Release()
		}
		srv.move(sess, reaped)
	}
	for _, sid := range rest {
		if sess, ok := srv.sessions[sid]; !ok || sess.state != libOwned {
			srv.proxyRelease(t, sid)
		} else if sess.owner == dead {
			srv.move(sess, reaped)
		}
	}
	// Unregister the dead library from metastate callbacks.
	srv.libs = slices.DeleteFunc(srv.libs, func(lib *Library) bool { return lib == dead })
}
