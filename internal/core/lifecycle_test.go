package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/socketapi"
	"repro/internal/stack"
	"repro/internal/wire"
)

// lifeRig is one TestSessionLifecycle case: an application on host A
// whose session the steps follow, and on host B a peer that accepts on
// port 7 (nothing listens on 9) and dials A on request.
type lifeRig struct {
	t          *testing.T
	p          *sim.Proc
	s          *sim.Sim
	seg        *simnet.Segment
	srv        *Server
	app, child *Library
	peer       *Library
	fd         int
	sid        SessionID
	fresh      bool // the last step began following a new session
}

// lifeStep is one call on the followed session, with the states the call
// takes it through; the session must end the step in the last of them.
type lifeStep struct {
	name string
	do   func(r *lifeRig)
	path []sessionState
}

func (r *lifeRig) follow(fd int, err error) {
	if err != nil {
		r.t.Error(err)
		return
	}
	e, _ := r.app.Lookup(fd)
	r.fd, r.sid, r.fresh = fd, sessOf(e).id, true
}

func (r *lifeRig) state() sessionState {
	if sess, ok := r.srv.sessions[r.sid]; ok {
		return sess.state
	}
	return reaped
}

// invariants checks every session the server holds against the resources
// its state implies: a packet filter iff it is migrating or library-owned,
// an owner iff library-owned, and its port in the namespace while it holds
// one (named, listening, or migrated with a port of its own).
func (r *lifeRig) invariants(at string) {
	filtered := 0
	for _, sess := range r.srv.sessions {
		withFilter := sess.state == migrating || sess.state == libOwned
		if withFilter {
			filtered++
		}
		if (sess.ep != nil && sess.filterID != 0) != withFilter {
			r.t.Errorf("%s: session %d in state %d: endpoint %v, filter %d", at, sess.id, sess.state, sess.ep, sess.filterID)
		}
		if (sess.owner != nil) != (sess.state == libOwned) {
			r.t.Errorf("%s: session %d in state %d: owner %v", at, sess.id, sess.state, sess.owner)
		}
		if (sess.state.in(1<<named|1<<listening) || sess.portHeld) && !r.srv.Ports.InUse(sess.proto, sess.local.Port) {
			r.t.Errorf("%s: session %d in state %d: port %d not reserved", at, sess.id, sess.state, sess.local.Port)
		}
	}
	if n := r.srv.sys.Host.Filters.Len(); n != 1+filtered {
		r.t.Errorf("%s: %d filters installed, want the catch-all and %d session filters", at, n, filtered)
	}
}

func path(s ...sessionState) []sessionState { return s }

// unclaimedFrame is an IP datagram to dst of a protocol no stack speaks:
// IP input charges for it, then drops it.
func unclaimedFrame(dst wire.IPAddr) []byte {
	f := make([]byte, wire.EthHeaderLen+wire.IPv4HeaderLen+64)
	(&wire.EthHeader{Type: wire.EtherTypeIPv4}).Marshal(f)
	(&wire.IPv4Header{TotalLen: wire.IPv4HeaderLen + 64, TTL: 64, Proto: 99, Src: ipB, Dst: dst}).Marshal(f[wire.EthHeaderLen:])
	return f
}

var (
	ipA, ipB = wire.IP(10, 0, 0, 1), wire.IP(10, 0, 0, 2)

	lifeSocket = func(typ int) lifeStep {
		return lifeStep{"socket", func(r *lifeRig) { r.follow(r.app.Socket(r.p, typ)) }, path(unnamed)}
	}
	lifeBind = func(port uint16, p []sessionState) lifeStep {
		return lifeStep{"bind", func(r *lifeRig) {
			if err := r.app.Bind(r.p, r.fd, socketapi.SockAddr{Port: port}); err != nil {
				r.t.Error(err)
			}
		}, p}
	}
	lifeConnect = func(port uint16, want error, p []sessionState) lifeStep {
		return lifeStep{"connect", func(r *lifeRig) {
			if err := r.app.Connect(r.p, r.fd, socketapi.SockAddr{Addr: ipB, Port: port}); !errors.Is(err, want) {
				r.t.Errorf("connect = %v, want %v", err, want)
			}
		}, p}
	}
	// Another thread of the process closes the descriptor while the
	// connect waits on a host that never answers: the close takes the
	// session and the connect is refused.
	lifeConnectUnderClose = func(p []sessionState) lifeStep {
		return lifeStep{"connect under close", func(r *lifeRig) {
			r.app.Proc.Go("closer", func(p *sim.Proc) {
				p.Sleep(time.Second)
				r.app.Close(p, r.fd)
			})
			err := r.app.Connect(r.p, r.fd, socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 3), Port: 7})
			if !errors.Is(err, socketapi.ErrBadFD) {
				r.t.Errorf("connect under close = %v, want EBADF", err)
			}
		}, p}
	}
	lifeClose = func(p []sessionState) lifeStep {
		return lifeStep{"close", func(r *lifeRig) { r.app.Close(r.p, r.fd) }, p}
	}
	lifeCloseChild = func(p []sessionState) lifeStep {
		return lifeStep{"child close", func(r *lifeRig) { r.child.Close(r.p, r.fd) }, p}
	}
	lifeFork = lifeStep{"fork", func(r *lifeRig) {
		c, err := r.app.Fork(r.p, "child")
		if err != nil {
			r.t.Error(err)
			return
		}
		r.child = c.(*Library)
	}, path(returning, serverOwned)}
	lifeListen = lifeStep{"listen", func(r *lifeRig) { r.app.Listen(r.p, r.fd, 1) }, path(listening)}
	lifeAccept = lifeStep{"accept", func(r *lifeRig) {
		r.s.Spawn("dialer", func(p *sim.Proc) {
			fd, _ := r.peer.Socket(p, socketapi.SockStream)
			if err := r.peer.Connect(p, fd, socketapi.SockAddr{Addr: ipA, Port: 5001}); err != nil {
				r.t.Error(err)
				return
			}
			r.peer.Recv(p, fd, make([]byte, 1), 0) // until A closes
			r.peer.Close(p, fd)
		})
		fd, _, err := r.app.Accept(r.p, r.fd)
		r.follow(fd, err)
	}, path(unnamed, serverOwned, migrating, libOwned)}
	lifeExit = func(p []sessionState) lifeStep {
		return lifeStep{"exit", func(r *lifeRig) { r.app.ExitProcess(r.p) }, p}
	}
	lifeWait2MSL = lifeStep{"2MSL", func(r *lifeRig) { r.p.Sleep(90 * time.Second) }, path(reaped)}
	// The peer's reset kills the connection in the library, leaving the
	// session library-owned with no state to hand back.
	lifePeerResets = lifeStep{"peer resets", func(r *lifeRig) {
		r.p.Sleep(10 * time.Millisecond) // the peer has accepted
		r.peer.ExitProcess(r.p)
		r.p.Sleep(10 * time.Millisecond) // its reset has arrived
	}, path(libOwned)}

	lifeEstablished = path(serverOwned, migrating, libOwned)
	lifeMigratedUDP = path(named, migrating, libOwned)
)

// TestSessionLifecycle drives sessions through every edge of the
// transition table with the calls that take them, checking after each
// call where the session is and that every session's resources match its
// state. Once everything is closed, 2MSL and the orphan quarantine over,
// the server holds no session, no port and no session filter.
func TestSessionLifecycle(t *testing.T) {
	tcp, udp := socketapi.SockStream, socketapi.SockDgram
	cases := []struct {
		name  string
		steps []lifeStep
	}{
		{"udp/close", []lifeStep{lifeSocket(udp), lifeBind(4000, lifeMigratedUDP), lifeClose(path(returning, reaped))}},
		{"udp/fork", []lifeStep{lifeSocket(udp), lifeBind(4001, lifeMigratedUDP), lifeFork,
			lifeClose(path(serverOwned)), lifeCloseChild(path(closing, reaped))}},
		{"udp/death", []lifeStep{lifeSocket(udp), lifeBind(4002, lifeMigratedUDP), lifeExit(path(reaped))}},
		{"tcp/connect", []lifeStep{lifeSocket(tcp), lifeConnect(7, nil, lifeEstablished),
			lifeClose(path(returning, closing)), lifeWait2MSL}},
		{"tcp/bound-connect-fork", []lifeStep{lifeSocket(tcp), lifeBind(5000, path(named)),
			lifeConnect(7, nil, lifeEstablished), lifeFork, lifeClose(path(serverOwned)),
			lifeCloseChild(path(closing)), lifeWait2MSL}},
		{"tcp/listen", []lifeStep{lifeSocket(tcp), lifeBind(5001, path(named)), lifeListen, lifeListen,
			lifeClose(path(closing, reaped))}},
		{"tcp/accept", []lifeStep{lifeSocket(tcp), lifeBind(5001, path(named)), lifeListen, lifeAccept,
			lifeClose(path(returning, closing)), lifeWait2MSL}},
		{"tcp/death", []lifeStep{lifeSocket(tcp), lifeConnect(7, nil, lifeEstablished), lifeExit(path(aborting, reaped))}},
		{"tcp/listener-death", []lifeStep{lifeSocket(tcp), lifeBind(5001, path(named)), lifeListen,
			lifeExit(path(closing, reaped))}},
		{"tcp/refused", []lifeStep{lifeSocket(tcp), lifeConnect(9, socketapi.ErrConnRefused, path(unnamed)),
			lifeClose(path(reaped))}},
		{"tcp/bound-refused", []lifeStep{lifeSocket(tcp), lifeBind(5002, path(named)),
			lifeConnect(9, socketapi.ErrConnRefused, path(unnamed)), lifeClose(path(reaped))}},
		{"tcp/bound-close", []lifeStep{lifeSocket(tcp), lifeBind(5003, path(named)), lifeClose(path(closing, reaped))}},
		{"tcp/option-close", []lifeStep{lifeSocket(tcp),
			{"setsockopt", func(r *lifeRig) { r.app.SetSockOpt(r.p, r.fd, socketapi.SoRcvBuf, 4096) }, path(unnamed)},
			lifeClose(path(closing, reaped))}},
		// Close or death of a connection the peer reset: the server reaps
		// the record.
		{"tcp/reset-close", []lifeStep{lifeSocket(tcp), lifeConnect(7, nil, lifeEstablished), lifePeerResets,
			lifeClose(path(reaped))}},
		{"tcp/reset-exit", []lifeStep{lifeSocket(tcp), lifeConnect(7, nil, lifeEstablished), lifePeerResets,
			lifeExit(path(reaped))}},
		// A connection dead at the server cannot be exported: the
		// migration backs out and the server keeps the session.
		{"tcp/export-fails", []lifeStep{lifeSocket(tcp), lifeConnect(7, nil, lifeEstablished), lifeFork,
			{"dead migration", func(r *lifeRig) {
				sess := r.srv.sessions[r.sid]
				r.srv.St.Abort(r.p, sess.srvSock)
				if err := r.srv.migrate(r.p, sess, r.app, true, new(stack.TCPSessionState)); err == nil {
					r.t.Error("a closed connection migrated")
				}
			}, path(migrating, serverOwned)},
			lifeClose(path(serverOwned)), lifeCloseChild(path(closing, reaped))}},
		{"tcp/close-under-connect", []lifeStep{lifeSocket(tcp), lifeConnectUnderClose(path(closing, reaped))}},
		{"udp/close-under-connect", []lifeStep{lifeSocket(udp), lifeBind(4003, lifeMigratedUDP),
			lifeConnectUnderClose(path(returning, reaped))}},
		// The last descriptor closes while the server's export of the
		// session waits for its stack, held by a frame's IP input: the
		// migration is refused and the server shuts the session.
		{"tcp/close-under-export", []lifeStep{lifeSocket(tcp), lifeConnect(7, nil, lifeEstablished), lifeFork,
			lifeClose(path(serverOwned)), {"export under close", func(r *lifeRig) {
				r.s.Spawn("input", func(p *sim.Proc) { r.srv.St.Input(p, unclaimedFrame(ipA), false) })
				r.s.Spawn("closer", func(p *sim.Proc) {
					p.Sleep(2) // the export is waiting
					r.srv.proxyRelease(p, r.sid)
				})
				r.p.Sleep(1) // the input holds the stack
				if err := r.srv.migrate(r.p, r.srv.sessions[r.sid], r.app, true, new(stack.TCPSessionState)); !errors.Is(err, socketapi.ErrBadFD) {
					r.t.Errorf("migration under close = %v, want EBADF", err)
				}
			}, path(migrating, serverOwned, closing)}, lifeWait2MSL}},
		// The last descriptor closes while the server, the connection
		// established, waits to resolve the peer for the library's cache:
		// the peer's SYN-ACK, delayed on its link, arrives after the
		// server's ARP entry for the peer (20 s) has aged out. The connect
		// is refused and the server shuts the session.
		{"tcp/close-under-resolve", []lifeStep{lifeSocket(tcp), {"connect under close, resolving", func(r *lifeRig) {
			// Both entries start their lives now: neither side sends an
			// ARP request until the server's has expired.
			r.srv.St.ARP().Insert(ipB, wire.MAC{2})
			r.peer.srv.St.ARP().Insert(ipA, wire.MAC{1})
			r.seg.Faults().SetLinkRates("B", fault.Rates{Delay: 25 * time.Second})
			r.app.Proc.Go("closer", func(p *sim.Proc) {
				p.Sleep(27 * time.Second) // the SYN-ACK is in; the resolve waits
				r.app.Close(p, r.fd)
			})
			err := r.app.Connect(r.p, r.fd, socketapi.SockAddr{Addr: ipB, Port: 7})
			r.seg.Faults().ClearLinkRates("B")
			if !errors.Is(err, socketapi.ErrBadFD) {
				r.t.Errorf("connect under close = %v, want EBADF", err)
			}
		}, path(serverOwned, closing)}, lifeWait2MSL}},
	}

	covered := map[[2]sessionState]bool{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New(28)
			s.Deadline = sim.Time(10 * time.Minute)
			seg := simnet.NewSegment(s)
			a := New(kern.NewHost(s, seg, "A", wire.MAC{1}, ipA, costs.DECLibrarySHMIPF()), costs.DECServerUX())
			b := New(kern.NewHost(s, seg, "B", wire.MAC{2}, ipB, costs.DECLibrarySHMIPF()), costs.DECServerUX())
			r := &lifeRig{t: t, s: s, seg: seg, srv: a.Server, app: a.NewLibrary("app"), peer: b.NewLibrary("peer")}
			s.SpawnDaemon("peer", func(p *sim.Proc) {
				ls, _ := r.peer.Socket(p, socketapi.SockStream)
				r.peer.Bind(p, ls, socketapi.SockAddr{Port: 7})
				r.peer.Listen(p, ls, 8)
				for {
					if _, _, err := r.peer.Accept(p, ls); err != nil {
						return
					}
				}
			})
			s.Spawn("app", func(p *sim.Proc) {
				r.p = p
				p.Sleep(time.Millisecond)
				prev := unborn
				for _, st := range c.steps {
					st.do(r)
					if r.fresh {
						prev, r.fresh = unborn, false
					}
					for _, to := range st.path {
						covered[[2]sessionState{prev, to}] = true
						prev = to
					}
					if got := r.state(); got != prev {
						t.Errorf("after %s: state %d, want %d", st.name, got, prev)
					}
					r.invariants("after " + st.name)
				}
				for _, lib := range []*Library{r.app, r.child} {
					if lib == nil {
						continue
					}
					for _, fd := range lib.FDs() {
						lib.Close(p, fd)
					}
				}
				p.Sleep(2 * time.Minute)
				if n, ports := r.srv.Sessions(), r.srv.Ports.Active(); n != 0 || ports != 0 {
					t.Errorf("drained: %d sessions and %d ports left", n, ports)
				}
				r.invariants("drained")
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}

	for from := range next {
		for to := unborn; to <= reaped; to++ {
			if to.in(next[from]) && !covered[[2]sessionState{sessionState(from), to}] {
				t.Errorf("no case takes the edge %d -> %d", from, to)
			}
		}
	}

	t.Run("illegal edge panics", func(t *testing.T) {
		sess := &session{id: 1, state: named}
		defer func() {
			if recover() == nil || sess.state != named {
				t.Errorf("named -> libOwned (skipping the filter install) did not panic, state %d", sess.state)
			}
		}()
		(&Server{}).move(sess, libOwned)
	})
}
