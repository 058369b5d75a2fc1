package socklayer_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/socketapi"
	"repro/internal/socklayer"
	"repro/internal/stack"
	"repro/internal/wire"
)

// The layer in isolation: two bare stacks on one segment, no
// architecture. Each node's place is configured directly, so every
// combination of alias and crossing can be driven — including ones no
// shipped architecture uses.

type node struct {
	host  *kern.Host
	st    *stack.Control
	place socklayer.Place
	sel   sim.Cond
	calls int      // crossings made
	fins  []uint16 // source ports of the FIN segments sent, in wire order
	onTx  func(frame []byte)
}

func (n *node) app(name string) *socklayer.Table {
	return socklayer.NewTable(n.host.NewProcess(name), &n.place)
}

func newNode(s *sim.Sim, seg *simnet.Segment, name string, last byte, alias, crossed bool) *node {
	ip := wire.IP(10, 0, 0, last)
	n := &node{}
	n.host = kern.NewHost(s, seg, name, wire.MAC{2, 0, 0, 0, 0, last}, ip, costs.DECKernelMach25())
	owner := n.host.NewProcess("stack")
	ep := n.host.NewEndpoint(0)
	if _, err := ep.InstallProgram(kern.CatchAllProgram(), 0); err != nil {
		panic(err)
	}
	n.st = stack.NewControl(stack.Config{
		Sim: s, Name: name, LocalIP: ip, LocalMAC: n.host.NIC.MAC(),
		Costs:  &n.host.Prof.Costs,
		Charge: n.host.ProtoCharge(&n.host.Prof.Costs, nil),
		Transmit: func(frame []byte) error {
			if eh, err := wire.UnmarshalEth(frame); err == nil && eh.Type == wire.EtherTypeIPv4 {
				ip, hl, _ := wire.UnmarshalIPv4(frame[wire.EthHeaderLen:])
				if th, _, err := wire.UnmarshalTCP(frame[wire.EthHeaderLen+hl:]); ip.Proto == wire.ProtoTCP && err == nil && th.Flags&0x01 != 0 {
					n.fins = append(n.fins, th.SrcPort)
				}
			}
			if n.onTx != nil {
				n.onTx(frame)
			}
			return n.host.Transmit(frame)
		},
	}, stack.NewLocalPorts())
	owner.GoDaemon("rx", func(t *sim.Proc) {
		for {
			pkt, ok := ep.Recv(t)
			if !ok {
				return
			}
			n.st.Input(t, pkt.Frame, pkt.Owned)
		}
	})
	n.st.StartTimers(owner.GoDaemon)
	n.place = socklayer.Place{St: n.st.Stack, Ctl: n.st, Alias: alias, Sel: &n.sel}
	if crossed {
		svc := kern.NewService(owner, name+".svc", 8)
		n.place.Cross = func(t *sim.Proc, _ int, run func(on *sim.Proc)) {
			n.calls++
			svc.Call(t, func(w *sim.Proc) {
				if w == t {
					panic("crossing ran the call on the caller's thread")
				}
				run(w)
			})
		}
	}
	return n
}

type world struct {
	s    *sim.Sim
	a, b *node
}

// newWorld builds host A with the placement under test and host B as a
// plain direct, copying peer.
func newWorld(seed int64, alias, crossed bool) *world {
	s := sim.New(seed)
	s.Deadline = sim.Time(10 * time.Minute)
	seg := simnet.NewSegment(s)
	return &world{s: s, a: newNode(s, seg, "A", 1, alias, crossed), b: newNode(s, seg, "B", 2, false, false)}
}

var peerAddr = socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 80}

// listen starts a listener on B and hands each accepted connection to
// serve on its own thread.
func (w *world) listen(t *testing.T, serve func(p *sim.Proc, api *socklayer.Table, fd int)) {
	api := w.b.app("peer")
	w.s.SpawnDaemon("peer", func(p *sim.Proc) {
		ls, _ := api.Socket(p, socketapi.SockStream)
		api.Bind(p, ls, socketapi.SockAddr{Port: 80})
		api.Listen(p, ls, 8)
		for {
			fd, _, err := api.Accept(p, ls)
			if err != nil {
				return
			}
			w.s.SpawnDaemon("serve", func(sp *sim.Proc) { serve(sp, api, fd) })
		}
	})
}

func placements(t *testing.T, fn func(t *testing.T, alias, crossed bool)) {
	for _, pl := range []struct {
		name           string
		alias, crossed bool
	}{{"direct-copy", false, false}, {"direct-alias", true, false}, {"crossed-copy", false, true}} {
		t.Run(pl.name, func(t *testing.T) { fn(t, pl.alias, pl.crossed) })
	}
}

func connect(t *testing.T, p *sim.Proc, api *socklayer.Table) int {
	fd, err := api.Socket(p, socketapi.SockStream)
	if err == nil {
		err = api.Connect(p, fd, peerAddr)
	}
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	return fd
}

// Fork shares open-file entries: the child's numbering continues the
// parent's, and only the last close of a shared descriptor sends FIN.
func TestForkSharesEntriesLastCloseSendsFIN(t *testing.T) {
	placements(t, func(t *testing.T, alias, crossed bool) {
		w := newWorld(1, alias, crossed)
		var eofAt sim.Time
		w.listen(t, func(p *sim.Proc, api *socklayer.Table, fd int) {
			for {
				if n, err := api.Recv(p, fd, make([]byte, 64), 0); n == 0 || err != nil {
					eofAt = p.Now()
					return
				}
			}
		})
		parent := w.a.app("parent")
		var parentClosed, childClosed sim.Time
		w.s.Spawn("parent", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			fd := connect(t, p, parent)
			c, err := parent.Fork(p, "child")
			if err != nil {
				t.Fatalf("fork: %v", err)
			}
			child := c.(*socklayer.Table)
			pfd, _ := parent.Socket(p, socketapi.SockDgram)
			cfd, _ := child.Socket(p, socketapi.SockDgram)
			if pfd != fd+1 || cfd != fd+1 {
				t.Errorf("next fd after fork: parent %d child %d, want both %d", pfd, cfd, fd+1)
			}
			if _, err := child.Send(p, fd, []byte("from child"), 0); err != nil {
				t.Errorf("child send on inherited fd: %v", err)
			}
			if err := parent.Close(p, fd); err != nil {
				t.Errorf("parent close: %v", err)
			}
			parentClosed = p.Now()
			p.Sleep(time.Second)
			if _, err := child.Send(p, fd, []byte("still open"), 0); err != nil {
				t.Errorf("child send after parent close: %v", err)
			}
			if _, err := parent.Send(p, fd, []byte("x"), 0); !errors.Is(err, socketapi.ErrBadFD) {
				t.Errorf("parent send after its close = %v, want EBADF", err)
			}
			childClosed = p.Now()
			if err := child.Close(p, fd); err != nil {
				t.Errorf("child close: %v", err)
			}
			p.Sleep(time.Second)
		})
		if err := w.s.Run(); err != nil {
			t.Fatal(err)
		}
		if eofAt <= parentClosed || eofAt < childClosed {
			t.Fatalf("peer saw EOF at %v; parent closed at %v, child (last reference) at %v", eofAt, parentClosed, childClosed)
		}
	})
}

// ExitProcess closes what is left, lowest descriptor first: the FINs
// leave in descriptor order on every run.
func TestExitClosesAscending(t *testing.T) {
	w := newWorld(2, false, false)
	w.listen(t, func(p *sim.Proc, api *socklayer.Table, fd int) { p.Sleep(time.Hour) })
	app := w.a.app("app")
	var ports []uint16
	w.s.Spawn("app", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		for i := 0; i < 6; i++ {
			name, _ := app.GetSockName(p, connect(t, p, app))
			ports = append(ports, name.Port)
		}
		app.ExitProcess(p)
		p.Sleep(time.Second)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(w.a.fins) != len(ports) {
		t.Fatalf("%d FINs sent, want %d", len(w.a.fins), len(ports))
	}
	for i := range ports {
		if w.a.fins[i] != ports[i] {
			t.Fatalf("FINs left for ports %v, want descriptor order %v", w.a.fins, ports)
		}
	}
}

func TestSelectTimeouts(t *testing.T) {
	placements(t, func(t *testing.T, alias, crossed bool) {
		w := newWorld(3, alias, crossed)
		w.listen(t, func(p *sim.Proc, api *socklayer.Table, fd int) {
			p.Sleep(300 * time.Millisecond)
			api.Send(p, fd, []byte("wake"), 0)
			p.Sleep(time.Hour)
		})
		app := w.a.app("app")
		w.s.Spawn("app", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			fd := connect(t, p, app)
			set := socketapi.NewFDSet(fd)

			start := p.Now()
			r, _, err := app.Select(p, set, nil, 0)
			if err != nil || len(r) != 0 {
				t.Errorf("poll: %v %v", r, err)
			}
			if !crossed && p.Now() != start {
				t.Errorf("timeout 0 slept %v", p.Now().Sub(start))
			}

			start = p.Now()
			r, _, _ = app.Select(p, set, nil, 20*time.Millisecond)
			if got := p.Now().Sub(start); len(r) != 0 || got < 20*time.Millisecond || got > 30*time.Millisecond {
				t.Errorf("20ms deadline: ready=%v after %v", r, got)
			}

			r, _, _ = app.Select(p, set, nil, -1)
			if !r[fd] || p.Now() < sim.Time(300*time.Millisecond) {
				t.Errorf("blocking select: ready=%v at %v, want fd %d once data arrives (300ms)", r, p.Now(), fd)
			}
			_, w2, _ := app.Select(p, nil, set, 0)
			if !w2[fd] {
				t.Error("connected socket with an empty send buffer not writable")
			}
		})
		if err := w.s.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// RecvMsg fills the scatter list in order with one receive, and stops
// at a short read instead of blocking for the rest.
func TestRecvMsgStopsAtShortRead(t *testing.T) {
	placements(t, func(t *testing.T, alias, crossed bool) {
		w := newWorld(4, alias, crossed)
		w.listen(t, func(p *sim.Proc, api *socklayer.Table, fd int) {
			api.Send(p, fd, []byte("0123456789"), 0)
			p.Sleep(time.Hour)
		})
		app := w.a.app("app")
		w.s.Spawn("app", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			fd := connect(t, p, app)
			p.Sleep(100 * time.Millisecond) // all ten bytes queued
			before := w.a.calls
			iov := [][]byte{make([]byte, 8), make([]byte, 8), []byte("untouched")}
			n, _, err := app.RecvMsg(p, fd, iov, 0)
			if err != nil || n != 10 {
				t.Errorf("RecvMsg = %d, %v; want 10", n, err)
			}
			if string(iov[0]) != "01234567" || string(iov[1][:2]) != "89" || string(iov[2]) != "untouched" {
				t.Errorf("scatter = %q %q %q", iov[0], iov[1][:2], iov[2])
			}
			if crossed && w.a.calls-before != 1 {
				t.Errorf("RecvMsg made %d crossings, want 1 (one receive for the whole list)", w.a.calls-before)
			}
		})
		if err := w.s.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// SendChain owns the chain it is given: every error return releases it
// (a released chain is empty), whichever way the place moves data.
func TestSendChainReleasesOnEveryError(t *testing.T) {
	placements(t, func(t *testing.T, alias, crossed bool) {
		w := newWorld(5, alias, crossed)
		w.listen(t, func(p *sim.Proc, api *socklayer.Table, fd int) { p.Sleep(time.Hour) })
		app := w.a.app("app")
		w.s.Spawn("app", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			shut := connect(t, p, app)
			app.Shutdown(p, shut, socketapi.ShutWr)
			never, _ := app.Socket(p, socketapi.SockStream)
			udp, _ := app.Socket(p, socketapi.SockDgram)
			udpTo, _ := app.Socket(p, socketapi.SockDgram)
			app.Connect(p, udpTo, peerAddr)
			for _, tc := range []struct {
				name string
				fd   int
				size int
				want error
			}{
				{"bad fd", 99, 64, socketapi.ErrBadFD},
				{"never connected", never, 64, socketapi.ErrNotConn},
				{"after shutdown", shut, 64, socketapi.ErrPipe},
				{"udp without destination", udp, 64, socketapi.ErrNotConn},
				{"udp datagram too long", udpTo, 10000, socketapi.ErrMsgSize},
			} {
				c := mbuf.FromBytesCopy(make([]byte, tc.size))
				if _, err := app.SendChain(p, tc.fd, c, 0); !errors.Is(err, tc.want) {
					t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
				}
				if c.Len() != 0 || c.Segments() != 0 {
					t.Errorf("%s: chain not released (%d bytes in %d segments left)", tc.name, c.Len(), c.Segments())
				}
			}
		})
		if err := w.s.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// A RecvPeek view outlives RecvRelease and later arrivals: across a
// boundary it is a private copy, in a shared address space it holds its
// own storage references.
func TestRecvPeekViewSurvivesRelease(t *testing.T) {
	placements(t, func(t *testing.T, alias, crossed bool) {
		w := newWorld(6, alias, crossed)
		w.listen(t, func(p *sim.Proc, api *socklayer.Table, fd int) {
			api.Send(p, fd, []byte("hello"), 0)
			p.Sleep(200 * time.Millisecond)
			api.Send(p, fd, []byte("WORLD"), 0)
			p.Sleep(time.Hour)
		})
		app := w.a.app("app")
		w.s.Spawn("app", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			fd := connect(t, p, app)
			v, err := app.RecvPeek(p, fd, 0, []socketapi.Range{{Off: 1, Len: 3}})
			if err != nil {
				t.Fatalf("RecvPeek: %v", err)
			}
			if got := v.Chain.Bytes(); string(got) != "hello" || string(v.Copied[0]) != "ell" {
				t.Errorf("view %q ranges %q", got, v.Copied)
			}
			if err := app.RecvRelease(p, fd, 5); err != nil {
				t.Errorf("RecvRelease: %v", err)
			}
			buf := make([]byte, 16)
			n, err := app.Recv(p, fd, buf, 0)
			if err != nil || string(buf[:n]) != "WORLD" {
				t.Errorf("next read %q, %v", buf[:n], err)
			}
			if got := v.Chain.Bytes(); !bytes.Equal(got, []byte("hello")) {
				t.Errorf("view after release and refill = %q, want it unchanged", got)
			}
			v.Chain.Release()
			aliased := w.a.st.Stats.ZeroCopyRxBytes.Value() > 0
			if aliased != alias {
				t.Errorf("stack aliased the view: %v, place.Alias: %v", aliased, alias)
			}
		})
		if err := w.s.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// The NEWAPI calls alias only where the place says buffers can be
// shared; elsewhere they are the copying calls.
func TestZeroCopyFollowsPlace(t *testing.T) {
	placements(t, func(t *testing.T, alias, crossed bool) {
		w := newWorld(7, alias, crossed)
		w.listen(t, func(p *sim.Proc, api *socklayer.Table, fd int) {
			buf := make([]byte, 64)
			n, _ := api.Recv(p, fd, buf, 0)
			api.Send(p, fd, buf[:n], 0)
			p.Sleep(time.Hour)
		})
		app := w.a.app("app")
		w.s.Spawn("app", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			fd := connect(t, p, app)
			if _, err := app.SendZC(p, fd, []byte("newapi"), 0); err != nil {
				t.Fatalf("SendZC: %v", err)
			}
			view, _, err := app.RecvZC(p, fd, 64, 0)
			if err != nil || string(view) != "newapi" {
				t.Errorf("RecvZC = %q, %v", view, err)
			}
			if aliased := w.a.st.Stats.SockAliasedBytes.Value() > 0; aliased != alias {
				t.Errorf("send aliased: %v, place.Alias: %v", aliased, alias)
			}
		})
		if err := w.s.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
