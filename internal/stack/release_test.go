package stack_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/stack"
	"repro/internal/wire"
)

// Virtual times of the use-after-release scenario: the first burst has
// arrived well before the second starts, and the second has arrived well
// before the first burst's kept bytes are read.
const (
	secondBurstAt = time.Second
	checkAt       = 2 * time.Second
	burstPort     = 9999
)

// TestKeptBytesOutliveReuse covers every path that keeps received bytes
// after Input returns. Each case keeps bytes of a first burst in the
// place under test, a second burst then takes storage from mbuf's pools
// (32 full-size datagrams that B queues unread, so each needs a fresh
// frame), and only then are the first burst's bytes checked. Storage
// handed back while a place still aliased it would by then hold the
// second burst's bytes (or, under the race detector, mbuf's poison).
func TestKeptBytesOutliveReuse(t *testing.T) {
	const n = 8 * 1024
	cases := []struct {
		name string
		run  func(t *testing.T, w *world, want []byte) []byte // returns what the place kept
	}{
		{"tcp in order", keptTCP(false)},
		{"tcp out of order", keptTCP(true)},
		{"udp datagrams", keptUDP},
		{"ip reassembly", keptFragments},
		{"recvpeek view", keptView},
		{"splice", keptSplice},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(11)
			want := make([]byte, n)
			w.s.Rand().Read(want)
			w.s.Spawn("burst2", func(p *sim.Proc) { secondBurst(t, w, p) })
			if got := tc.run(t, w, want); !bytes.Equal(got, want) {
				t.Fatalf("kept %d bytes differ from the %d sent (first mismatch at %d)", len(got), len(want), mismatch(got, want))
			}
		})
	}
}

func mismatch(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// secondBurst binds B's burst port and, at secondBurstAt, sends it the
// second burst from A.
func secondBurst(t *testing.T, w *world, p *sim.Proc) {
	sink := w.b.st.NewSocket(wire.ProtoUDP)
	w.b.st.SetOption(sink, socketapi.SoRcvBuf, 64*1024)
	if err := w.b.st.Bind(sink, stack.Addr{Port: burstPort}); err != nil {
		t.Error(err)
		return
	}
	p.Sleep(secondBurstAt)
	s := w.a.st.NewSocket(wire.ProtoUDP)
	dst := stack.Addr{IP: w.b.st.LocalIP(), Port: burstPort}
	junk := bytes.Repeat([]byte{0xee}, 1400)
	for range 32 {
		if _, err := w.a.st.Send(p, s, [][]byte{junk}, sendOptsTo(&dst)); err != nil {
			t.Error(err)
			return
		}
	}
}

// run drives the world to completion, failing the test on a sim error.
func run(t *testing.T, w *world) {
	t.Helper()
	if err := w.s.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// listenB returns a listening socket on B's port.
func listenB(t *testing.T, w *world, port uint16) *stack.Socket {
	ls := w.b.st.NewSocket(wire.ProtoTCP)
	if err := w.b.st.Bind(ls, stack.Addr{Port: port}); err != nil {
		t.Error(err)
	}
	if err := w.b.st.Listen(ls, 5); err != nil {
		t.Error(err)
	}
	return ls
}

// sendTCP connects A to B's port and sends want.
func sendTCP(t *testing.T, w *world, p *sim.Proc, port uint16, want []byte) {
	s := w.a.st.NewSocket(wire.ProtoTCP)
	if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: port}); err != nil {
		t.Error(err)
		return
	}
	if _, err := w.a.st.Send(p, s, [][]byte{want}, stack.SendOpts{}); err != nil {
		t.Error(err)
	}
}

// readFull reads len(want) bytes from s.
func readFull(t *testing.T, st *stack.Control, p *sim.Proc, s *stack.Socket, n int) []byte {
	var got []byte
	buf := make([]byte, n)
	for len(got) < n {
		k, _, _, err := st.Recv(p, s, buf, recvOptsNone())
		if err != nil || k == 0 {
			t.Errorf("recv after %d bytes: n=%d %v", len(got), k, err)
			break
		}
		got = append(got, buf[:k]...)
	}
	return got
}

// keptTCP keeps the stream in B's receive queue, unread until checkAt.
// Out of order, A's second data segment (the first one slow start sends
// beside another) is lost until the second burst has been sent, so the
// segment after it waits in reassembly.
func keptTCP(reorder bool) func(t *testing.T, w *world, want []byte) []byte {
	return func(t *testing.T, w *world, want []byte) []byte {
		held := reorder
		var seqs []uint32
		if reorder {
			w.a.txFilter = func(frame []byte) bool {
				v, ok := wire.Dissect(frame)
				if !ok || v.Flow.Proto != wire.ProtoTCP || v.End == v.PayAt || !held {
					return true
				}
				if len(seqs) < 2 && (len(seqs) == 0 || seqs[0] != v.Seq) {
					seqs = append(seqs, v.Seq)
				}
				return len(seqs) < 2 || v.Seq != seqs[1]
			}
		}
		var got []byte
		w.s.Spawn("reader", func(p *sim.Proc) {
			cs, err := w.b.st.Accept(p, listenB(t, w, 7000))
			if err != nil {
				t.Error(err)
				return
			}
			p.Sleep(checkAt)
			got = readFull(t, w.b.st, p, cs, len(want))
		})
		w.s.Spawn("writer", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			sendTCP(t, w, p, 7000, want)
		})
		w.s.After(secondBurstAt+100*time.Millisecond, func() { held = false })
		run(t, w)
		if reorder && w.a.st.Stats.TCPDupAcks.Value() == 0 {
			t.Error("B sent no duplicate ACK: nothing waited in reassembly")
		}
		return got
	}
}

// keptUDP keeps the first burst as datagrams queued unread at B.
func keptUDP(t *testing.T, w *world, want []byte) []byte {
	const dgram = 1024
	var got []byte
	w.s.Spawn("reader", func(p *sim.Proc) {
		s := w.b.st.NewSocket(wire.ProtoUDP)
		w.b.st.SetOption(s, socketapi.SoRcvBuf, 2*len(want))
		if err := w.b.st.Bind(s, stack.Addr{Port: 7000}); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(checkAt)
		got = readFull(t, w.b.st, p, s, len(want))
	})
	w.s.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoUDP)
		dst := stack.Addr{IP: w.b.st.LocalIP(), Port: 7000}
		for off := 0; off < len(want); off += dgram {
			if _, err := w.a.st.Send(p, s, [][]byte{want[off : off+dgram]}, sendOptsTo(&dst)); err != nil {
				t.Error(err)
			}
		}
	})
	run(t, w)
	return got
}

// keptFragments holds the first burst, one datagram, in B's reassembly
// table: A's last fragment is kept back until the second burst is sent.
func keptFragments(t *testing.T, w *world, want []byte) []byte {
	var last []byte
	w.a.txFilter = func(frame []byte) bool {
		h, _, err := wire.UnmarshalIPv4(frame[wire.EthHeaderLen:])
		if err == nil && h.IsFragment() && !h.MoreFragments() && last == nil {
			last = frame
			return false
		}
		return true
	}
	w.s.After(secondBurstAt+100*time.Millisecond, func() {
		if last == nil {
			t.Error("no last fragment was held back")
			return
		}
		if err := w.a.host.NIC.Transmit(last); err != nil {
			t.Error(err)
		}
	})
	var got []byte
	w.s.Spawn("reader", func(p *sim.Proc) {
		s := w.b.st.NewSocket(wire.ProtoUDP)
		w.b.st.SetOption(s, socketapi.SoRcvBuf, 2*len(want))
		if err := w.b.st.Bind(s, stack.Addr{Port: 7000}); err != nil {
			t.Error(err)
			return
		}
		got = readFull(t, w.b.st, p, s, len(want))
	})
	w.s.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoUDP)
		dst := stack.Addr{IP: w.b.st.LocalIP(), Port: 7000}
		if _, err := w.a.st.Send(p, s, [][]byte{want}, sendOptsTo(&dst)); err != nil {
			t.Error(err)
		}
	})
	run(t, w)
	if w.b.st.Stats.IPReasmOK.Value() != 1 {
		t.Errorf("reassembled %d datagrams, want 1", w.b.st.Stats.IPReasmOK.Value())
	}
	return got
}

// keptView keeps the first burst in a RecvPeek view whose bytes the
// receive queue has already released.
func keptView(t *testing.T, w *world, want []byte) []byte {
	var view *mbuf.Chain
	w.s.Spawn("reader", func(p *sim.Proc) {
		cs, err := w.b.st.Accept(p, listenB(t, w, 7000))
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(secondBurstAt / 2)
		if view, _, _, err = w.b.st.RecvPeek(p, cs, 0, nil); err != nil {
			t.Error(err)
			return
		}
		if err := w.b.st.RecvRelease(p, cs, view.Len()); err != nil {
			t.Error(err)
		}
	})
	w.s.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		sendTCP(t, w, p, 7000, want)
	})
	run(t, w)
	if view == nil {
		return nil
	}
	defer view.Release()
	return view.Bytes()
}

// keptSplice relays the first burst through B by Splice into a
// connection back to A whose reader does not read until checkAt, so the
// spliced bytes wait in B's send queue.
func keptSplice(t *testing.T, w *world, want []byte) []byte {
	var got []byte
	w.s.Spawn("sink", func(p *sim.Proc) {
		ls := w.a.st.NewSocket(wire.ProtoTCP)
		w.a.st.Bind(ls, stack.Addr{Port: 7001})
		w.a.st.Listen(ls, 5)
		cs, err := w.a.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(checkAt)
		got = readFull(t, w.a.st, p, cs, len(want))
	})
	w.s.Spawn("relay", func(p *sim.Proc) {
		src, err := w.b.st.Accept(p, listenB(t, w, 7000))
		if err != nil {
			t.Error(err)
			return
		}
		dst := w.b.st.NewSocket(wire.ProtoTCP)
		if err := w.b.st.Connect(p, dst, stack.Addr{IP: w.a.st.LocalIP(), Port: 7001}); err != nil {
			t.Error(err)
			return
		}
		if _, err := w.b.st.Splice(p, dst, src, len(want)); err != nil {
			t.Error(err)
		}
	})
	w.s.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		sendTCP(t, w, p, 7000, want)
	})
	run(t, w)
	return got
}
