package socklayer_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/socklayer"
)

// uxCross makes n's place cross the way the UX server's does: straight
// onto a service worker, with nothing built per call.
func uxCross(n *node) {
	svc := kern.NewService(n.host.NewProcess("ux"), "ux", 4)
	n.place.Cross = func(t *sim.Proc, _ int, run func(on *sim.Proc)) { svc.Call(t, run) }
}

// TestCrossedSendRecvAllocateNothing: once warm, a 1-byte TCP ping-pong
// whose Send and Recv both cross onto a server worker allocates nothing
// per round trip — no call record, no closure, no captured result.
func TestCrossedSendRecvAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	w := newWorld(1, false, false)
	uxCross(w.a)
	w.listen(t, func(p *sim.Proc, api *socklayer.Table, fd int) {
		buf := make([]byte, 1)
		for {
			if n, err := api.Recv(p, fd, buf, 0); n == 0 || err != nil {
				return
			}
			api.Send(p, fd, buf, 0)
		}
	})
	app := w.a.app("client")
	const period = 10 * time.Millisecond
	rounds := 0
	w.s.SpawnDaemon("client", func(p *sim.Proc) {
		fd := connect(t, p, app)
		buf := make([]byte, 1)
		for {
			if _, err := app.Send(p, fd, buf, 0); err != nil {
				t.Error(err)
				return
			}
			if n, err := app.Recv(p, fd, buf, 0); n != 1 || err != nil {
				t.Errorf("recv: %d bytes, %v", n, err)
				return
			}
			rounds++
			p.Sleep(period)
		}
	})
	// One whole round trip per run: AllocsPerRun rounds down, so with
	// fewer rounds than runs an object per round would read 0.
	round := func() {
		for r := rounds; rounds == r; {
			if err := w.s.RunFor(time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range 100 { // warm the pools and the records
		round()
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a crossed round trip allocates %.2f objects, want 0", n)
	}
}

// TestCrossedRecvsKeepTheirOwnResults: two threads of one process and a
// forked child sharing the descriptor sit in crossed Recvs on one place
// at the same moment, each with its own buffer and flags. Each returns
// its own bytes, in its own buffer, and its own error: two threads take
// the peer's two messages, and the one waiting for urgent data, which
// never comes, gets EINVAL when the parent shuts the socket's read side.
func TestCrossedRecvsKeepTheirOwnResults(t *testing.T) {
	w := newWorld(1, false, false)
	uxCross(w.a)
	w.listen(t, func(p *sim.Proc, api *socklayer.Table, fd int) {
		p.Sleep(10 * time.Millisecond)
		api.Send(p, fd, []byte("AAAA"), 0)
		p.Sleep(10 * time.Millisecond)
		api.Send(p, fd, []byte("BBBB"), 0)
	})
	type result struct {
		buf []byte
		n   int
		err error
	}
	var got [3]result
	reader := func(i int, api socketapi.API, fd, flags int) {
		w.s.Spawn("reader", func(p *sim.Proc) {
			r := &got[i]
			r.buf = make([]byte, 8)
			r.n, r.err = api.Recv(p, fd, r.buf, flags)
		})
	}
	parent := w.a.app("parent")
	w.s.Spawn("parent", func(p *sim.Proc) {
		fd := connect(t, p, parent)
		child, err := parent.Fork(p, "child")
		if err != nil {
			t.Fatalf("fork: %v", err)
		}
		reader(0, parent, fd, 0)
		reader(1, parent, fd, socketapi.MsgOOB)
		reader(2, child, fd, 0)
		p.Sleep(time.Second)
		if err := parent.Shutdown(p, fd, socketapi.ShutRd); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, i := range []int{0, 2} {
		r := got[i]
		if r.err != nil || r.n != 4 || !bytes.Equal(r.buf[4:], make([]byte, 4)) {
			t.Fatalf("reader %d: %d bytes %q, %v; want 4 bytes of one message, nil", i, r.n, r.buf, r.err)
		}
		msgs = append(msgs, string(r.buf[:4]))
	}
	if !(msgs[0] == "AAAA" && msgs[1] == "BBBB" || msgs[0] == "BBBB" && msgs[1] == "AAAA") {
		t.Errorf("the two readers got %q, want one message each", msgs)
	}
	if r := got[1]; r.n != 0 || !errors.Is(r.err, socketapi.ErrInvalid) || !bytes.Equal(r.buf, make([]byte, 8)) {
		t.Errorf("urgent-data reader: %d bytes %q, %v; want nothing and EINVAL", r.n, r.buf, r.err)
	}
}
