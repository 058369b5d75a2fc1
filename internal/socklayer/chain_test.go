package socklayer_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/socklayer"
)

// Across a protection boundary the chain calls copy. SendChain hands the
// chain itself to the stack, which copies its segments in one at a time,
// and RecvPeek peeks into pooled storage that the view alone holds.

// TestBoundarySendChainIsSendMsg: across a boundary, SendChain of a
// multi-segment chain is SendMsg with the chain's segments as its gather
// list — the same frames at the same times, the same completion, the
// same copied bytes and the same copyin charge — and leaves the chain
// empty. The segments straddle the 8 KiB send buffer, so some are
// queued in parts.
func TestBoundarySendChainIsSendMsg(t *testing.T) {
	segs := [][]byte{make([]byte, 1000), make([]byte, 3000), {7}, make([]byte, 9000), make([]byte, 500)}
	total := 0
	for i, b := range segs {
		for j := range b {
			b[j] = byte(i*31 + j)
		}
		total += len(b)
	}
	type run struct {
		wire           []string
		returned, eof  sim.Time
		copied, copyin uint64
		got            []byte
	}
	send := func(t *testing.T, crossed, chain bool) run {
		var r run
		w := newWorld(9, false, crossed)
		for _, n := range []*node{w.a, w.b} {
			n.onTx = func(frame []byte) { r.wire = append(r.wire, fmt.Sprintf("%d %x", w.s.Now(), frame)) }
		}
		w.listen(t, func(p *sim.Proc, api *socklayer.Table, fd int) {
			buf := make([]byte, 4096)
			for {
				n, err := api.Recv(p, fd, buf, 0)
				if n == 0 || err != nil {
					r.eof = p.Now()
					return
				}
				r.got = append(r.got, buf[:n]...)
			}
		})
		app := w.a.app("app")
		w.s.Spawn("app", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			fd := connect(t, p, app)
			copied, copyin := w.a.st.Stats.SockCopiedBytes.Value(), w.a.host.Ledger[costs.CompEntryCopyin].Value()
			var n int
			var err error
			if chain {
				c := mbuf.New()
				for _, b := range segs {
					c.AppendChain(mbuf.FromBytesCopy(b))
				}
				if c.Segments() != len(segs) {
					t.Fatalf("chain has %d segments, want %d", c.Segments(), len(segs))
				}
				n, err = app.SendChain(p, fd, c, 0)
				if c.Len() != 0 || c.Segments() != 0 {
					t.Errorf("chain left with %d bytes in %d segments", c.Len(), c.Segments())
				}
			} else {
				n, err = app.SendMsg(p, fd, segs, 0, nil)
			}
			if n != total || err != nil {
				t.Errorf("send = %d, %v; want %d", n, err, total)
			}
			r.returned = p.Now()
			r.copied = w.a.st.Stats.SockCopiedBytes.Value() - copied
			r.copyin = w.a.host.Ledger[costs.CompEntryCopyin].Value() - copyin
			app.Close(p, fd)
			p.Sleep(time.Second) // the sink drains to end of stream
		})
		if err := w.s.Run(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, crossed := range []bool{false, true} {
		t.Run(fmt.Sprintf("crossed=%v", crossed), func(t *testing.T) {
			msg, ch := send(t, crossed, false), send(t, crossed, true)
			if !bytes.Equal(ch.got, bytes.Join(segs, nil)) || !bytes.Equal(msg.got, ch.got) {
				t.Fatalf("delivered %d bytes by SendChain, %d by SendMsg; want the same %d", len(ch.got), len(msg.got), total)
			}
			if ch.returned != msg.returned || ch.eof != msg.eof {
				t.Errorf("SendChain returned at %v, EOF at %v; SendMsg %v, %v", ch.returned, ch.eof, msg.returned, msg.eof)
			}
			if ch.copied != uint64(total) || ch.copied != msg.copied {
				t.Errorf("copied bytes: SendChain %d, SendMsg %d; want %d", ch.copied, msg.copied, total)
			}
			if ch.copyin == 0 || ch.copyin != msg.copyin {
				t.Errorf("copyin charge: SendChain %d ns, SendMsg %d ns", ch.copyin, msg.copyin)
			}
			if len(ch.wire) != len(msg.wire) {
				t.Fatalf("SendChain put %d frames on the wire, SendMsg %d", len(ch.wire), len(msg.wire))
			}
			for i := range ch.wire {
				if ch.wire[i] != msg.wire[i] {
					t.Fatalf("frame %d differs:\n chain %.120s\n   msg %.120s", i, ch.wire[i], msg.wire[i])
				}
			}
		})
	}
}

// TestBoundaryPeekSendChainAllocatesOnlyTheHeader: once warm, a chunk
// peeked across a boundary, released and sent on with SendChain costs
// one object, the view's chain header: the peek lands in pooled storage
// that SendChain hands back, and the chain crosses to the stack without
// a gather list. (Before, a chunk also cost its heap buffer, the header
// wrapping it and the gather list.)
func TestBoundaryPeekSendChainAllocatesOnlyTheHeader(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	w := newWorld(2, false, false)
	const period = 10 * time.Millisecond
	msg := make([]byte, 1000)
	w.listen(t, func(p *sim.Proc, api *socklayer.Table, fd int) {
		buf := make([]byte, len(msg))
		for {
			if _, err := api.Send(p, fd, msg, 0); err != nil {
				return
			}
			for got := 0; got < len(msg); {
				n, err := api.Recv(p, fd, buf, 0)
				if n == 0 || err != nil {
					return
				}
				got += n
			}
			p.Sleep(period)
		}
	})
	app := w.a.app("echo")
	chunks := 0
	w.s.SpawnDaemon("echo", func(p *sim.Proc) {
		fd := connect(t, p, app)
		for {
			v, err := app.RecvPeek(p, fd, 4096, nil)
			n := v.Chain.Len()
			if err != nil || n == 0 {
				t.Errorf("peek: %d bytes, %v", n, err)
				return
			}
			if err := app.RecvRelease(p, fd, n); err != nil {
				t.Error(err)
				return
			}
			if _, err := app.SendChain(p, fd, v.Chain, 0); err != nil {
				t.Error(err)
				return
			}
			chunks++
		}
	})
	step := func() { // runs until one more chunk has gone back
		for want := chunks + 1; chunks < want; {
			if err := w.s.RunFor(time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range 100 { // warm the pools and the records
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 1 {
		t.Errorf("a peeked and forwarded chunk allocates %.2f objects once warm, want 1 (its view header)", n)
	}
}
