package core

import (
	"time"

	"repro/internal/costs"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/socklayer"
	"repro/internal/stack"
	"repro/internal/wire"
)

// Library is the application-linked protocol library: the proxy of §3.2.
// It exports the standard socket interface through the shared socket
// layer (the embedded Table), placing each descriptor one of two ways:
// a session that has migrated in lives on the library's own stack, in
// this address space, and every data call on it is a plain function
// call; a session the operating-system server manages (a listener, a
// socket not yet connected, anything returned for fork or splice) lives
// on the server's stack, one proxy RPC away. What this file adds is the
// calls that move a session between the two (Table 1) and the ones both
// sides implement jointly (select). One Library instance corresponds to
// one application address space.
type Library struct {
	*socklayer.Table

	sys  *System
	srv  *Server
	name string
	// St is the fast path only: Table 1's other column (socket, bind,
	// connect, listen, accept, close) is not a method of its type.
	St *stack.Stack

	local  socklayer.Place // sessions migrated in: own stack, buffers shared with the application
	remote socklayer.Place // sessions the OS server manages: its stack, behind proxy

	cache *MetaCache

	// selCond implements the library's half of the cooperative select:
	// local socket status changes and server proxy_status pokes both land
	// here.
	selCond sim.Cond

	// rxBusy gates migrations against in-flight input processing so a
	// session's state is never exported mid-update.
	rxBusy  int
	rxQuiet sim.Cond
	rx      func(t *sim.Proc, frame []byte, owned bool) // input, as every receive thread's step

	proxyCalls int
	exited     bool
}

// appSession is the library's descriptor-table entry for one session:
// the shared layer's slot plus what the library itself records about it.
type appSession struct {
	socklayer.Entry
	id    SessionID
	proto uint8
	name  socketapi.SockAddr // local name as the application bound it (getsockname)
}

// newSession makes a server-managed entry whose Owner is the session.
func (lib *Library) newSession(proto uint8) *appSession {
	s := &appSession{proto: proto}
	s.At, s.Owner = &lib.remote, s
	return s
}

func sessOf(e *socklayer.Entry) *appSession { return e.Owner.(*appSession) }

var _ socketapi.API = (*Library)(nil)
var _ socketapi.ZeroCopyAPI = (*Library)(nil)
var _ socketapi.ChainAPI = (*Library)(nil)

// NewLibrary creates an application process with its protocol library.
func (sys *System) NewLibrary(name string) *Library {
	lib := &Library{sys: sys, srv: sys.Server, name: name}
	lib.cache = NewMetaCache(lib)
	lib.St = stack.New(sys.Host.StackConfig(name+".lib", &sys.Host.Prof, nil), lib.cache)
	lib.local = socklayer.Place{St: lib.St, Alias: true, Sel: &lib.selCond}
	// Server sockets report their status changes through the server's own
	// watch (pokeSelectors), so the remote place has no select channel.
	lib.remote = socklayer.Place{St: sys.Server.St.Stack, Ctl: sys.Server.St, Cross: lib.proxy}
	lib.Table = socklayer.NewTable(sys.Host.NewProcess(name), &lib.remote)
	lib.Table.Late = lib.implicitBind
	lib.rx = lib.input // bound once, not per session's receive thread
	lib.St.StartTimers(lib.Proc.GoDaemon)
	sys.Server.libs = append(sys.Server.libs, lib)
	return lib
}

// proxy is the crossing to the operating-system server: one RPC,
// charged the round-trip IPC cost for approxBytes of arguments, with
// run executing on a server worker thread.
func (lib *Library) proxy(t *sim.Proc, approxBytes int, run func(on *sim.Proc)) {
	lib.proxyCalls++
	h := lib.sys.Host
	h.Charge(t, sim.TaskPriority, costs.CompProxyRPC, h.Prof.ProxyRPC.At(approxBytes))
	lib.srv.svc.Call(t, run)
}

// startRx spawns a session's receive thread: it drains the session's
// packet filter endpoint into the library's protocol stack. This is the
// fast path of the paper — no operating-system involvement per packet.
func (lib *Library) startRx(ep *kern.Endpoint) { ep.Drain(lib.Proc, "rx", lib.rx) }

// input is a receive thread's step: one frame into the library stack,
// counted in rxBusy.
func (lib *Library) input(t *sim.Proc, frame []byte, owned bool) {
	lib.rxBusy++
	lib.St.Input(t, frame, owned)
	lib.rxBusy--
	if lib.rxBusy == 0 {
		lib.rxQuiet.Broadcast()
	}
}

// quiesce waits until no receive thread is mid-packet, so a migration
// captures consistent protocol state.
func (lib *Library) quiesce(t *sim.Proc) {
	for lib.rxBusy > 0 {
		lib.rxQuiet.Wait(t)
	}
}

// goLocal places an entry whose socket was just created on the library
// stack: calls on it stop crossing, its status changes feed the
// library's select, and its packets arrive on ep.
func (lib *Library) goLocal(e *socklayer.Entry, ep *kern.Endpoint) {
	e.At = &lib.local
	e.Watch()
	lib.startRx(ep)
}

// adoptTCP installs a migrated TCP session into the library stack.
func (lib *Library) adoptTCP(t *sim.Proc, e *socklayer.Entry, m migration) {
	lib.cache.Insert(lib.St.NextHop(m.remote.IP), m.remoteMAC)
	e.Sock = lib.St.ImportTCPSession(t, m.state)
	lib.goLocal(e, m.ep)
}

// giveBack is proxy_return (Table 1): a locally managed session's state
// migrates back to the operating system — to run the close handshake
// and 2MSL wait there (closing), or to be managed there from now on
// (fork, splice), after which calls on the entry cross to the server.
func (lib *Library) giveBack(t *sim.Proc, e *socklayer.Entry, closing bool) error {
	s := sessOf(e)
	var state *stack.TCPSessionState
	bytes := 32
	if s.proto == wire.ProtoUDP {
		lib.St.DropUDPSession(e.Sock)
	} else {
		var err error
		if state, err = lib.St.ExportTCPSession(t, e.Sock); err != nil {
			return err
		}
		bytes = state.WireSize()
	}
	e.At = &lib.remote
	var r struct {
		sock *stack.Socket
		err  error
	}
	lib.proxy(t, bytes, func(on *sim.Proc) { r.sock, r.err = lib.srv.proxyReturn(on, s.id, state, closing) })
	e.Sock = r.sock
	return r.err
}

// Socket implements socketapi.API (Table 1: socket -> proxy_socket). The
// server keeps a bare session record; no socket exists yet anywhere.
func (lib *Library) Socket(t *sim.Proc, typ int) (int, error) {
	proto, err := socklayer.Proto(typ)
	if err != nil {
		return -1, err
	}
	s := lib.newSession(proto)
	lib.proxy(t, 16, func(*sim.Proc) { s.id = lib.srv.proxySocket(proto) })
	return lib.Install(&s.Entry), nil
}

// Bind implements socketapi.API (Table 1: bind -> proxy_bind; UDP
// sessions migrate to the application).
func (lib *Library) Bind(t *sim.Proc, fd int, addr socketapi.SockAddr) error {
	e, err := lib.Lookup(fd)
	if err != nil {
		return err
	}
	return lib.bind(t, e, addr)
}

func (lib *Library) bind(t *sim.Proc, e *socklayer.Entry, addr socketapi.SockAddr) error {
	s := sessOf(e)
	var r struct {
		bound
		err error
	}
	lib.proxy(t, 32, func(on *sim.Proc) { r.bound, r.err = lib.srv.proxyBind(on, s.id, socklayer.ToStack(addr), lib) })
	if r.err != nil {
		return r.err
	}
	s.name = socketapi.SockAddr{Addr: addr.Addr, Port: r.local.Port}
	e.Sock = r.sock // TCP: the server's socket keeps managing the session
	if r.ep != nil {
		// The (null) UDP session state plus a packet filter port migrated
		// to us; manage the session locally from here on.
		e.Sock = lib.St.AdoptUDPSession(r.local, stack.Addr{})
		lib.goLocal(e, r.ep)
	}
	return nil
}

// implicitBind is the table's Late hook: a data call on a socket that
// does not exist yet. For UDP that is the implicit bind of sendto on an
// unbound socket — the server names an ephemeral port and the session
// migrates here. A TCP socket never connected stays bare: ENOTCONN.
func (lib *Library) implicitBind(t *sim.Proc, e *socklayer.Entry) error {
	if sessOf(e).proto != wire.ProtoUDP {
		return nil
	}
	return lib.bind(t, e, socketapi.SockAddr{})
}

// Connect implements socketapi.API (Table 1: connect -> proxy_connect;
// UDP and TCP sessions migrate to the application).
func (lib *Library) Connect(t *sim.Proc, fd int, addr socketapi.SockAddr) error {
	e, err := lib.Lookup(fd)
	if err != nil {
		return err
	}
	s := sessOf(e)
	raddr := socklayer.ToStack(addr)
	var r struct {
		migration
		err error
	}
	lib.proxy(t, 64, func(on *sim.Proc) { r.migration, r.err = lib.srv.proxyConnect(on, s.id, raddr, lib) })
	if r.err != nil {
		if s.proto == wire.ProtoTCP && e.At == &lib.remote {
			e.Sock = nil // the failed open consumed the server's socket
		}
		return r.err
	}
	s.name = socklayer.FromStack(r.local)
	switch s.proto {
	case wire.ProtoUDP:
		if r.ep == nil {
			return nil // the server manages it (returned for fork): its socket took the peer
		}
		lib.cache.Insert(lib.St.NextHop(raddr.IP), r.remoteMAC)
		wasLocal := e.At == &lib.local
		if wasLocal {
			// Rebind the local socket with the narrowed remote.
			lib.St.DropUDPSession(e.Sock)
		}
		e.Sock = lib.St.AdoptUDPSession(r.local, raddr)
		if wasLocal {
			e.Watch()
		} else {
			lib.goLocal(e, r.ep)
		}
	case wire.ProtoTCP:
		lib.adoptTCP(t, e, r.migration)
	}
	return nil
}

// Listen implements socketapi.API (Table 1: listen -> proxy_listen; the
// operating system awaits new connections).
func (lib *Library) Listen(t *sim.Proc, fd int, backlog int) error {
	e, err := lib.Lookup(fd)
	if err != nil {
		return err
	}
	lib.proxy(t, 16, func(*sim.Proc) { err = lib.srv.proxyListen(sessOf(e).id, backlog) })
	return err
}

// Accept implements socketapi.API (Table 1: accept -> proxy_accept;
// the passively opened session migrates to the application once
// established). The server refuses a session that is not listening.
func (lib *Library) Accept(t *sim.Proc, fd int) (int, socketapi.SockAddr, error) {
	e, err := lib.Lookup(fd)
	if err != nil {
		return -1, socketapi.SockAddr{}, err
	}
	var r struct {
		migration
		err error
	}
	lib.proxy(t, 64, func(on *sim.Proc) { r.migration, r.err = lib.srv.proxyAccept(on, sessOf(e).id, lib) })
	if r.err != nil {
		return -1, socketapi.SockAddr{}, r.err
	}
	ns := lib.newSession(wire.ProtoTCP)
	ns.id, ns.name = r.sid, socklayer.FromStack(r.local)
	lib.adoptTCP(t, &ns.Entry, r.migration)
	return lib.Install(&ns.Entry), socklayer.FromStack(r.remote), nil
}

// Close implements socketapi.API: a clean shutdown migrates the session
// state back to the operating system, which follows the shutdown protocol
// there (FIN handshake, 2MSL wait). A session the server already manages
// just drops this process's reference.
func (lib *Library) Close(t *sim.Proc, fd int) error {
	e, err := lib.Lookup(fd)
	if err != nil {
		return err
	}
	lib.Remove(fd)
	if e.At == &lib.local {
		lib.quiesce(t)
		err := lib.giveBack(t, e, true)
		if e.At == &lib.remote {
			return err // handed back (or the hand-back itself failed)
		}
		// The export failed: the connection is already dead locally (reset
		// or fully closed), so there is nothing to hand back but the record.
	}
	lib.proxy(t, 16, func(on *sim.Proc) { err = lib.srv.proxyRelease(on, sessOf(e).id) })
	return err
}

// SetSockOpt implements socketapi.API. A session the library holds no
// socket for keeps its options at the server.
func (lib *Library) SetSockOpt(t *sim.Proc, fd int, opt, value int) error {
	e, err := lib.Lookup(fd)
	if err != nil {
		return err
	}
	if e.Sock != nil {
		return lib.Table.SetSockOpt(t, fd, opt, value)
	}
	lib.proxy(t, 16, func(*sim.Proc) { err = lib.srv.proxySetOpt(sessOf(e).id, opt, value) })
	return err
}

// GetSockOpt implements socketapi.API.
func (lib *Library) GetSockOpt(t *sim.Proc, fd int, opt int) (v int, err error) {
	e, err := lib.Lookup(fd)
	if err != nil {
		return 0, err
	}
	if e.Sock != nil {
		return lib.Table.GetSockOpt(t, fd, opt)
	}
	lib.proxy(t, 16, func(*sim.Proc) { v, err = lib.srv.proxyGetOpt(sessOf(e).id, opt) })
	return v, err
}

// GetSockName implements socketapi.API from the name the library
// recorded at bind, connect or accept (the stacks hold the endpoint
// with the host address filled in, for the packet filter's sake).
func (lib *Library) GetSockName(t *sim.Proc, fd int) (socketapi.SockAddr, error) {
	e, err := lib.Lookup(fd)
	if err != nil {
		return socketapi.SockAddr{}, err
	}
	return sessOf(e).name, nil
}

// Select implements socketapi.API through the cooperative interface of
// §3.2: locally managed sockets are checked in the library; sessions
// managed by the operating system are checked there through proxy_status;
// and when every descriptor is local, the operating system is never
// involved.
func (lib *Library) Select(t *sim.Proc, read, write socketapi.FDSet, timeout time.Duration) (socketapi.FDSet, socketapi.FDSet, error) {
	r, w := socklayer.Wait(t, &lib.selCond, timeout, func() (socketapi.FDSet, socketapi.FDSet) {
		r, w := socketapi.FDSet{}, socketapi.FDSet{}
		var sids []SessionID // server-managed sessions, with the fd and set each answers for
		var fds []int
		var wantWrite []bool
		check := func(fd int, write bool) {
			e, err := lib.Lookup(fd)
			switch {
			case err != nil:
			case e.At != &lib.local:
				sids, fds, wantWrite = append(sids, sessOf(e).id), append(fds, fd), append(wantWrite, write)
			case !write && e.Sock.Readable():
				r[fd] = true
			case write && e.Sock.Writable():
				w[fd] = true
			}
		}
		for fd := range read {
			check(fd, false)
		}
		for fd := range write {
			check(fd, true)
		}
		if len(sids) > 0 {
			var readable, writable []bool
			lib.proxy(t, 16*len(sids), func(*sim.Proc) { readable, writable = lib.srv.proxyStatus(sids) })
			for i, fd := range fds {
				if wantWrite[i] && writable[i] {
					w[fd] = true
				}
				if !wantWrite[i] && readable[i] {
					r[fd] = true
				}
			}
		}
		return r, w
	})
	return r, w, nil
}

// Fork implements socketapi.API. Per Table 1, every migrated session is
// returned to the operating system before the fork; afterwards both
// processes reach their shared sessions through the server.
func (lib *Library) Fork(t *sim.Proc, childName string) (socketapi.API, error) {
	lib.quiesce(t)
	for _, fd := range lib.FDs() {
		if e, _ := lib.Lookup(fd); e.At == &lib.local {
			if err := lib.giveBack(t, e, false); err != nil {
				return nil, err
			}
		}
	}
	child := lib.sys.NewLibrary(childName)
	err := lib.Inherit(child.Table, func(e *socklayer.Entry) (*socklayer.Entry, error) {
		cs := *sessOf(e) // the child's own record of the same server session
		cs.At, cs.Owner = &child.remote, &cs
		var err error
		lib.proxy(t, 16, func(*sim.Proc) { err = lib.srv.proxyDup(cs.id) })
		return &cs.Entry, err
	})
	return child, err
}

// ExitProcess implements socketapi.API: the unexpected-shutdown path. The
// kernel notifies the operating-system server of the death; the server
// scavenges the dead address space's session state, aborts the
// connections with resets, quarantines their ports, and drops the
// process's references on the sessions it manages itself.
func (lib *Library) ExitProcess(t *sim.Proc) {
	if lib.exited {
		return
	}
	lib.exited = true
	lib.quiesce(t)
	var tcp []orphan
	var rest []SessionID
	for _, fd := range lib.FDs() {
		e, _ := lib.Lookup(fd)
		lib.Remove(fd)
		s := sessOf(e)
		if e.At != &lib.local {
			rest = append(rest, s.id)
		} else if s.proto == wire.ProtoUDP {
			lib.St.DropUDPSession(e.Sock)
			rest = append(rest, s.id)
		} else if state, err := lib.St.ExportTCPSession(t, e.Sock); err == nil {
			tcp = append(tcp, orphan{s.id, state})
		} else {
			rest = append(rest, s.id) // reset in the library: nothing to abort
		}
	}
	lib.St.StopTimers()
	lib.srv.svc.Call(t, func(on *sim.Proc) { lib.srv.deathNotice(on, lib, tcp, rest) })
	lib.Proc.Exit()
}

// Splice implements socketapi.ChainAPI — the decomposed architecture's
// headline forwarding path. Both sessions are returned to the
// operating-system server (a "return" without close, exactly the fork
// migration), and the shared layer then splices the server's two
// sockets behind one proxy RPC: from then on forwarded payload bytes
// flow server-side by reference and are never copied out to — or even
// mapped into — the application. After the call the sessions remain
// server-managed; subsequent operations cross and close via release.
func (lib *Library) Splice(t *sim.Proc, dstFD, srcFD int, n int) (int, error) {
	dst, err := lib.Lookup(dstFD)
	if err != nil {
		return 0, err
	}
	src, err := lib.Lookup(srcFD)
	if err != nil {
		return 0, err
	}
	if sessOf(dst).proto != wire.ProtoTCP || sessOf(src).proto != wire.ProtoTCP {
		return 0, socketapi.ErrNotSupported
	}
	lib.quiesce(t)
	for _, e := range []*socklayer.Entry{dst, src} {
		if e.At == &lib.local {
			if err := lib.giveBack(t, e, false); err != nil {
				return 0, err
			}
		}
	}
	return lib.Table.Splice(t, dstFD, srcFD, n)
}

// Cache exposes the library's metastate cache (tests and diagnostics).
func (lib *Library) Cache() *MetaCache { return lib.cache }

// ProxyCalls returns the number of proxy RPCs this library has made.
func (lib *Library) ProxyCalls() int { return lib.proxyCalls }
