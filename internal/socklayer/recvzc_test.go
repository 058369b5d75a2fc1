package socklayer_test

import (
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/socklayer"
)

// zcPlacements runs fn on the two placements RecvZC has: the library's,
// where the stack fills the view buffer in its own address space, and the
// UX server's, where recv fills it across a crossing onto a server worker.
func zcPlacements(t *testing.T, fn func(t *testing.T, w *world)) {
	t.Run("library", func(t *testing.T) { fn(t, newWorld(1, true, false)) })
	t.Run("uxserver", func(t *testing.T) {
		w := newWorld(1, false, false)
		uxCross(w.a)
		fn(t, w)
	})
}

// replies serves each connection on B: for every byte it reads it
// answers with the next of msgs, then holds the connection open.
func (w *world) replies(t *testing.T, msgs ...string) {
	w.listen(t, func(p *sim.Proc, api *socklayer.Table, fd int) {
		req := make([]byte, 1)
		for _, m := range msgs {
			if n, err := api.Recv(p, fd, req, 0); n != 1 || err != nil {
				return
			}
			api.Send(p, fd, []byte(m), 0)
		}
		p.Sleep(time.Hour)
	})
}

// ask sends B one request byte on fd.
func ask(t *testing.T, p *sim.Proc, app *socklayer.Table, fd int) {
	if _, err := app.Send(p, fd, []byte{1}, 0); err != nil {
		t.Fatalf("send: %v", err)
	}
}

// TestWarmRecvZCAllocatesNothing: once a descriptor has received as
// much as the next call asks for, a RecvZC reuses the descriptor's view
// buffer and allocates nothing, on both placements. (Each call made a
// buffer of its own while the stack and recv allocated one per call.)
func TestWarmRecvZCAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	zcPlacements(t, func(t *testing.T, w *world) {
		const size = 64
		w.listen(t, func(p *sim.Proc, api *socklayer.Table, fd int) {
			req, msg := make([]byte, 1), make([]byte, size)
			for {
				if n, err := api.Recv(p, fd, req, 0); n == 0 || err != nil {
					return
				}
				api.Send(p, fd, msg, 0)
			}
		})
		app := w.a.app("client")
		rounds := 0
		w.s.SpawnDaemon("client", func(p *sim.Proc) {
			fd := connect(t, p, app)
			req := make([]byte, 1)
			for {
				if _, err := app.Send(p, fd, req, 0); err != nil {
					t.Error(err)
					return
				}
				for got := 0; got < size; {
					view, _, err := app.RecvZC(p, fd, size, 0)
					if len(view) == 0 || err != nil {
						t.Errorf("RecvZC: %d bytes, %v", len(view), err)
						return
					}
					got += len(view)
				}
				rounds++
				p.Sleep(10 * time.Millisecond)
			}
		})
		round := func() { // one whole round per run, so a per-call object counts 1
			for r := rounds; rounds == r; {
				if err := w.s.RunFor(time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
		}
		for range 100 { // warm the pools, the records and the view buffer
			round()
		}
		if n := testing.AllocsPerRun(100, round); n != 0 {
			t.Errorf("a warm round trip received with RecvZC allocates %.2f objects, want 0", n)
		}
	})
}

// TestRecvZCViewLastsUntilNextRecvZC: a view's bytes stay as received
// through every other call on its descriptor (a copying Recv, a
// RecvPeek and its release, more data queued behind it) and through a
// RecvZC on another descriptor; the next RecvZC on its own descriptor
// returns the next bytes.
func TestRecvZCViewLastsUntilNextRecvZC(t *testing.T) {
	zcPlacements(t, func(t *testing.T, w *world) {
		w.replies(t, "first", "second", "third", "fourth", "fifth")
		app := w.a.app("client")
		w.s.Spawn("client", func(p *sim.Proc) {
			fd, other := connect(t, p, app), connect(t, p, app)
			ask(t, p, app, fd)
			view, _, err := app.RecvZC(p, fd, 64, 0)
			if string(view) != "first" || err != nil {
				t.Fatalf("RecvZC = %q, %v", view, err)
			}
			intact := func(after string) {
				if string(view) != "first" {
					t.Errorf("after %s the view reads %q, want %q", after, view, "first")
				}
			}
			ask(t, p, app, fd)
			buf := make([]byte, 64)
			if n, err := app.Recv(p, fd, buf, 0); string(buf[:n]) != "second" || err != nil {
				t.Fatalf("Recv = %q, %v", buf[:n], err)
			}
			intact("a copying Recv")
			ask(t, p, app, fd)
			p.Sleep(100 * time.Millisecond)
			intact("more data queued")
			v, err := app.RecvPeek(p, fd, 64, nil)
			if err != nil || string(v.Chain.Bytes()) != "third" {
				t.Fatalf("RecvPeek = %q, %v", v.Chain.Bytes(), err)
			}
			if err := app.RecvRelease(p, fd, v.Chain.Len()); err != nil {
				t.Fatalf("RecvRelease: %v", err)
			}
			v.Chain.Release()
			intact("RecvPeek and RecvRelease")
			ask(t, p, app, other)
			if ov, _, err := app.RecvZC(p, other, 64, 0); string(ov) != "first" || err != nil {
				t.Fatalf("RecvZC on another descriptor = %q, %v", ov, err)
			}
			intact("a RecvZC on another descriptor")
			ask(t, p, app, fd)
			if next, _, err := app.RecvZC(p, fd, 64, 0); string(next) != "fourth" || err != nil {
				t.Errorf("next RecvZC = %q, %v", next, err)
			}
		})
		if err := w.s.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecvZCInFlightKeepTheirOwnViews: two threads of a process and a
// forked child sit in RecvZC on one shared descriptor, whose entry
// already holds a view buffer. Each call fills a buffer of its own, so
// every view still reads the message it returned once all three have
// returned.
func TestRecvZCInFlightKeepTheirOwnViews(t *testing.T) {
	zcPlacements(t, func(t *testing.T, w *world) {
		w.listen(t, func(p *sim.Proc, api *socklayer.Table, fd int) {
			for _, m := range []string{"WARM", "AAAA", "BBBB", "CCCC"} {
				api.Send(p, fd, []byte(m), 0)
				p.Sleep(10 * time.Millisecond)
			}
			p.Sleep(time.Hour)
		})
		var views [3][]byte
		reader := func(i int, api socketapi.ZeroCopyAPI, fd int) {
			w.s.Spawn("reader", func(p *sim.Proc) {
				var err error
				if views[i], _, err = api.RecvZC(p, fd, 4, 0); err != nil {
					t.Errorf("reader %d: %v", i, err)
				}
			})
		}
		parent := w.a.app("parent")
		w.s.Spawn("parent", func(p *sim.Proc) {
			fd := connect(t, p, parent)
			if warm, _, err := parent.RecvZC(p, fd, 4, 0); string(warm) != "WARM" || err != nil {
				t.Fatalf("warming RecvZC = %q, %v", warm, err)
			}
			child, err := parent.Fork(p, "child")
			if err != nil {
				t.Fatalf("fork: %v", err)
			}
			reader(0, parent, fd)
			reader(1, parent, fd)
			reader(2, child.(socketapi.ZeroCopyAPI), fd)
			p.Sleep(time.Second)
		})
		if err := w.s.Run(); err != nil {
			t.Fatal(err)
		}
		got := []string{string(views[0]), string(views[1]), string(views[2])}
		slices.Sort(got)
		if want := []string{"AAAA", "BBBB", "CCCC"}; !slices.Equal(got, want) {
			t.Errorf("the three views read %q once all returned, want one message each %q", got, want)
		}
	})
}
