package stack_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/stack"
	"repro/internal/wire"
)

// A refused connect leaves the socket with a CLOSED tcb and — once the
// connect call has reported ECONNREFUSED — no pending error. Every
// receive-side entry point must report ENOTCONN on such a socket rather
// than sleep on a receive queue nothing will ever fill (the simulation
// used to end with "virtual deadline exceeded").
func TestReceiveOnRefusedSocketReturnsNotConn(t *testing.T) {
	entries := map[string]func(w *world, p *sim.Proc, dead, live *stack.Socket) error{
		"Recv": func(w *world, p *sim.Proc, dead, _ *stack.Socket) error {
			_, _, _, err := w.a.st.Recv(p, dead, make([]byte, 16), stack.RecvOpts{})
			return err
		},
		"RecvPeek": func(w *world, p *sim.Proc, dead, _ *stack.Socket) error {
			_, _, _, err := w.a.st.RecvPeek(p, dead, 0, nil)
			return err
		},
		"SpliceSource": func(w *world, p *sim.Proc, dead, live *stack.Socket) error {
			_, err := w.a.st.Splice(p, live, dead, 16)
			return err
		},
	}
	for name, call := range entries {
		t.Run(name, func(t *testing.T) {
			w := newWorld(7)
			w.s.Deadline = sim.Time(5 * time.Minute)
			w.s.SpawnDaemon("listener", func(p *sim.Proc) {
				ls := w.b.st.NewSocket(wire.ProtoTCP)
				w.b.st.Bind(ls, stack.Addr{Port: 80})
				w.b.st.Listen(ls, 1)
				w.b.st.Accept(p, ls)
				p.Sleep(time.Hour)
			})
			var got error
			w.s.Spawn("client", func(p *sim.Proc) {
				p.Sleep(time.Millisecond)
				live := w.a.st.NewSocket(wire.ProtoTCP)
				if err := w.a.st.Connect(p, live, stack.Addr{IP: w.b.st.LocalIP(), Port: 80}); err != nil {
					t.Errorf("connect to listener: %v", err)
					return
				}
				dead := w.a.st.NewSocket(wire.ProtoTCP)
				err := w.a.st.Connect(p, dead, stack.Addr{IP: w.b.st.LocalIP(), Port: 9999})
				if !errors.Is(err, socketapi.ErrConnRefused) {
					t.Errorf("connect to closed port = %v, want ECONNREFUSED", err)
					return
				}
				got = call(w, p, dead, live)
			})
			if err := w.s.Run(); err != nil {
				t.Fatal(err)
			}
			if !errors.Is(got, socketapi.ErrNotConn) {
				t.Fatalf("%s on a refused socket = %v, want ENOTCONN", name, got)
			}
		})
	}
}

// The fix must not turn a clean end of stream into an error: after the
// peer's FIN a reader still sees EOF (0, nil), however far the
// connection's own teardown has progressed.
func TestReceiveAfterPeerCloseStillEOF(t *testing.T) {
	w := newWorld(8)
	w.s.Spawn("server", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: 80})
		w.b.st.Listen(ls, 1)
		c, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		w.b.st.Close(p, c)
		w.b.st.Close(p, ls)
	})
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 80}); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 2; i++ {
			if n, _, _, err := w.a.st.Recv(p, s, make([]byte, 16), stack.RecvOpts{}); n != 0 || err != nil {
				t.Errorf("read %d after peer close = %d, %v; want EOF", i, n, err)
			}
			p.Sleep(2 * time.Minute) // second read: long after TIME_WAIT on the peer
		}
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
}
