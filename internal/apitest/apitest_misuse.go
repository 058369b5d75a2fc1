package apitest

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/socketapi"
)

// misuse is the fixture a MisuseAgreement row runs against: one
// application on host A, and a peer on host B that accepts on peerPort,
// greets every connection and holds it open.
type misuse struct {
	p   *sim.Proc
	api socketapi.API
	zc  socketapi.ZeroCopyAPI
	ch  socketapi.ChainAPI
	e   *Env
}

const (
	peerPort = 6000
	badFD    = 99
)

func (m *misuse) sock(typ int) int {
	fd, err := m.api.Socket(m.p, typ)
	if err != nil {
		panic(err)
	}
	return fd
}
func (m *misuse) tcp() int { return m.sock(socketapi.SockStream) }
func (m *misuse) udp() int { return m.sock(socketapi.SockDgram) }

// conn returns a TCP socket connected to the peer.
func (m *misuse) conn() int {
	fd := m.tcp()
	if err := m.api.Connect(m.p, fd, m.peer()); err != nil {
		panic(err)
	}
	return fd
}
func (m *misuse) peer() socketapi.SockAddr { return socketapi.SockAddr{Addr: m.e.IPB, Port: peerPort} }

// refused returns a TCP socket whose connect was refused.
func (m *misuse) refused() int {
	fd := m.tcp()
	m.api.Connect(m.p, fd, socketapi.SockAddr{Addr: m.e.IPB, Port: 9999})
	return fd
}

// recvZC checks that RecvZC returns the first want bytes of the peer's
// greeting: everything queued for a max that names no size, at most max
// bytes for one that does.
func (m *misuse) recvZC(max, want int) error {
	b, _, err := m.zc.RecvZC(m.p, m.conn(), max, 0)
	if err == nil && string(b) != string(greeting[:want]) {
		err = fmt.Errorf("RecvZC(max=%d) = %q, want %q", max, b, greeting[:want])
	}
	return err
}

// name checks a GetSockName answer, folding a wrong value into an error
// so the row's expectation stays a single errno.
func (m *misuse) name(fd int, want socketapi.SockAddr) error {
	got, err := m.api.GetSockName(m.p, fd)
	if err == nil && got != want {
		err = fmt.Errorf("GetSockName = %v, want %v", got, want)
	}
	return err
}

var (
	one      = []byte("x")
	greeting = []byte("hello")
	buf      = make([]byte, 16)
	errFrom  = func(_ any, err error) error { return err }
)

// fdCalls is every call that takes a descriptor. Each must answer EBADF
// for one that was never opened; the ones marked stream move data and
// must answer ENOTCONN on a TCP socket that was never connected.
var fdCalls = []struct {
	name   string
	stream bool
	call   func(m *misuse, fd int) error
}{
	{"bind", false, func(m *misuse, fd int) error { return m.api.Bind(m.p, fd, socketapi.SockAddr{Addr: m.e.IPB, Port: 1}) }},
	{"connect", false, func(m *misuse, fd int) error { return m.api.Connect(m.p, fd, socketapi.SockAddr{}) }},
	{"listen", false, func(m *misuse, fd int) error { return m.api.Listen(m.p, fd, 1) }},
	{"accept", false, func(m *misuse, fd int) error { _, _, err := m.api.Accept(m.p, fd); return err }},
	{"send", true, func(m *misuse, fd int) error { return errFrom(m.api.Send(m.p, fd, one, 0)) }},
	{"sendto", false, func(m *misuse, fd int) error { return errFrom(m.api.SendTo(m.p, fd, one, 0, m.peer())) }},
	{"sendmsg", true, func(m *misuse, fd int) error { return errFrom(m.api.SendMsg(m.p, fd, [][]byte{one}, 0, nil)) }},
	{"recv", true, func(m *misuse, fd int) error { return errFrom(m.api.Recv(m.p, fd, buf, 0)) }},
	{"recvfrom", true, func(m *misuse, fd int) error { _, _, err := m.api.RecvFrom(m.p, fd, buf, 0); return err }},
	{"recvmsg", true, func(m *misuse, fd int) error { _, _, err := m.api.RecvMsg(m.p, fd, [][]byte{buf}, 0); return err }},
	{"close", false, func(m *misuse, fd int) error { return m.api.Close(m.p, fd) }},
	{"shutdown", true, func(m *misuse, fd int) error { return m.api.Shutdown(m.p, fd, socketapi.ShutWr) }},
	{"setsockopt", false, func(m *misuse, fd int) error { return m.api.SetSockOpt(m.p, fd, socketapi.SoRcvBuf, 4096) }},
	{"getsockopt", false, func(m *misuse, fd int) error { return errFrom(m.api.GetSockOpt(m.p, fd, socketapi.SoRcvBuf)) }},
	{"getsockname", false, func(m *misuse, fd int) error { return errFrom(m.api.GetSockName(m.p, fd)) }},
	{"getpeername", true, func(m *misuse, fd int) error { return errFrom(m.api.GetPeerName(m.p, fd)) }},
	{"sendzc", true, func(m *misuse, fd int) error { return errFrom(m.zc.SendZC(m.p, fd, one, 0)) }},
	{"recvzc", true, func(m *misuse, fd int) error { _, _, err := m.zc.RecvZC(m.p, fd, 16, 0); return err }},
	{"sendchain", true, func(m *misuse, fd int) error { return errFrom(m.ch.SendChain(m.p, fd, mbuf.FromBytesCopy(one), 0)) }},
	{"recvpeek", true, func(m *misuse, fd int) error { return errFrom(m.ch.RecvPeek(m.p, fd, 0, nil)) }},
	{"recvrelease", true, func(m *misuse, fd int) error { return m.ch.RecvRelease(m.p, fd, 1) }},
	{"splice-dst", true, func(m *misuse, fd int) error { return errFrom(m.ch.Splice(m.p, fd, m.conn(), 1)) }},
	{"splice-src", true, func(m *misuse, fd int) error { return errFrom(m.ch.Splice(m.p, m.conn(), fd, 1)) }},
}

// misuseRows is the rest of the table every architecture must answer
// alike: a call made in a state it is not valid in, with BSD's errno
// written once. A nil want means the call (or the value check folded
// into it) must succeed.
var misuseRows = []struct {
	name string
	want error
	do   func(m *misuse) error
}{
	{"badfd/double-close", socketapi.ErrBadFD, func(m *misuse) error {
		fd := m.udp()
		m.api.Close(m.p, fd)
		return m.api.Close(m.p, fd)
	}},
	{"badfd/select-ignores-closed", nil, func(m *misuse) error {
		fd := m.udp()
		m.api.Close(m.p, fd)
		r, w, err := m.api.Select(m.p, socketapi.NewFDSet(fd), socketapi.NewFDSet(fd), time.Millisecond)
		if err == nil && len(r)+len(w) != 0 {
			err = fmt.Errorf("select on a closed fd reported %v %v ready", r, w)
		}
		return err
	}},
	{"notconn/recv-after-refused", socketapi.ErrNotConn, func(m *misuse) error { return errFrom(m.api.Recv(m.p, m.refused(), buf, 0)) }},

	// Naming.
	{"bind/twice", socketapi.ErrInvalid, func(m *misuse) error {
		fd := m.udp()
		m.api.Bind(m.p, fd, socketapi.SockAddr{Port: 4100})
		return m.api.Bind(m.p, fd, socketapi.SockAddr{Port: 4101})
	}},
	{"bind/conflict", socketapi.ErrAddrInUse, func(m *misuse) error {
		m.api.Bind(m.p, m.udp(), socketapi.SockAddr{Port: 4102})
		return m.api.Bind(m.p, m.udp(), socketapi.SockAddr{Port: 4102})
	}},
	{"bind/foreign-address", socketapi.ErrAddrNotAvail, func(m *misuse) error {
		return m.api.Bind(m.p, m.udp(), socketapi.SockAddr{Addr: m.e.IPB, Port: 4103})
	}},
	{"name/unbound", nil, func(m *misuse) error { return m.name(m.tcp(), socketapi.SockAddr{}) }},
	{"name/wildcard-bound-tcp", nil, func(m *misuse) error {
		fd := m.tcp()
		m.api.Bind(m.p, fd, socketapi.SockAddr{Port: 4104})
		return m.name(fd, socketapi.SockAddr{Port: 4104})
	}},
	{"name/wildcard-bound-udp", nil, func(m *misuse) error {
		fd := m.udp()
		m.api.Bind(m.p, fd, socketapi.SockAddr{Port: 4105})
		return m.name(fd, socketapi.SockAddr{Port: 4105})
	}},

	// Options.
	{"opt/set-unknown", socketapi.ErrInvalid, func(m *misuse) error { return m.api.SetSockOpt(m.p, m.tcp(), 999, 1) }},
	{"opt/get-unknown", socketapi.ErrInvalid, func(m *misuse) error { return errFrom(m.api.GetSockOpt(m.p, m.tcp(), 999)) }},
	{"opt/zero-buffer", socketapi.ErrInvalid, func(m *misuse) error { return m.api.SetSockOpt(m.p, m.tcp(), socketapi.SoSndBuf, 0) }},

	// Connection set-up.
	{"socket/bad-type", socketapi.ErrInvalid, func(m *misuse) error { return errFrom(m.api.Socket(m.p, 42)) }},
	{"connect/zero-address", socketapi.ErrInvalid, func(m *misuse) error { return m.api.Connect(m.p, m.tcp(), socketapi.SockAddr{}) }},
	{"connect/refused", socketapi.ErrConnRefused, func(m *misuse) error {
		return m.api.Connect(m.p, m.tcp(), socketapi.SockAddr{Addr: m.e.IPB, Port: 9999})
	}},
	{"connect/again", socketapi.ErrIsConn, func(m *misuse) error { return m.api.Connect(m.p, m.conn(), m.peer()) }},
	{"listen/unbound", socketapi.ErrInvalid, func(m *misuse) error { return m.api.Listen(m.p, m.tcp(), 1) }},
	{"listen/udp", socketapi.ErrNotSupported, func(m *misuse) error { return m.api.Listen(m.p, m.udp(), 1) }},
	{"listen/udp-bound", socketapi.ErrNotSupported, func(m *misuse) error {
		fd := m.udp()
		m.api.Bind(m.p, fd, socketapi.SockAddr{Port: 4106})
		return m.api.Listen(m.p, fd, 1)
	}},
	{"listen/connected", socketapi.ErrInvalid, func(m *misuse) error { return m.api.Listen(m.p, m.conn(), 1) }},
	{"accept/not-listening", socketapi.ErrInvalid, func(m *misuse) error {
		fd := m.tcp()
		m.api.Bind(m.p, fd, socketapi.SockAddr{Port: 4107})
		_, _, err := m.api.Accept(m.p, fd)
		return err
	}},

	// Data movement in the wrong state.
	{"send/after-shutdown", socketapi.ErrPipe, func(m *misuse) error {
		fd := m.conn()
		m.api.Shutdown(m.p, fd, socketapi.ShutWr)
		return errFrom(m.api.Send(m.p, fd, one, 0))
	}},
	{"splice/udp-dst", socketapi.ErrNotSupported, func(m *misuse) error { return errFrom(m.ch.Splice(m.p, m.udp(), m.conn(), 1)) }},
	{"splice/udp-src", socketapi.ErrNotSupported, func(m *misuse) error { return errFrom(m.ch.Splice(m.p, m.conn(), m.udp(), 1)) }},
	{"recvzc/max=-1", nil, func(m *misuse) error { return m.recvZC(-1, len(greeting)) }},
	{"recvzc/max=0", nil, func(m *misuse) error { return m.recvZC(0, len(greeting)) }},
	{"recvzc/max=2", nil, func(m *misuse) error { return m.recvZC(2, 2) }},
	{"select/unbound-udp-writable", nil, func(m *misuse) error {
		fd := m.udp()
		_, w, err := m.api.Select(m.p, nil, socketapi.NewFDSet(fd), time.Millisecond)
		if err == nil && !w[fd] {
			err = fmt.Errorf("select: an unbound UDP socket is not writable")
		}
		return err
	}},
}

// testMisuseAgreement runs every misuse row on one application. The
// expected errno is in the table, not per architecture: a row failing on
// one column and passing on another is the compatibility claim failing.
func testMisuseAgreement(t *testing.T, e *Env) {
	peer := e.NewB("misuse-peer")
	e.Sim.SpawnDaemon("misuse-peer", func(p *sim.Proc) {
		ls := listener(p, peer, peerPort, 64)
		for {
			fd, _, err := peer.Accept(p, ls)
			if err != nil {
				return
			}
			peer.Send(p, fd, greeting, 0)
		}
	})
	api := e.NewA("misuse")
	e.Sim.Spawn("misuse", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		m := &misuse{p: p, api: api, e: e}
		m.zc, _ = api.(socketapi.ZeroCopyAPI)
		m.ch, _ = api.(socketapi.ChainAPI)
		if m.zc == nil || m.ch == nil {
			t.Error("implementation lacks the NEWAPI or chain interface")
			return
		}
		check := func(name string, got, want error) {
			if !errors.Is(got, want) || (want == nil && got != nil) {
				t.Errorf("%s: got %v, want %v", name, got, want)
			}
		}
		for _, c := range fdCalls {
			check("badfd/"+c.name, c.call(m, badFD), socketapi.ErrBadFD)
			if c.stream {
				check("notconn/"+c.name, c.call(m, m.tcp()), socketapi.ErrNotConn)
			}
		}
		for _, row := range misuseRows {
			check(row.name, row.do(m), row.want)
		}
	})
}
