package stack_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/stack"
	"repro/internal/wire"
)

// TestSendChainRetransmitCoW is the copy-on-write regression at the
// protocol level: the send queue doubles as the retransmission queue,
// so after SendChain surrenders a chain, the protocol holds references
// into storage the application can still reach through other views.
// The app scribbling over such a view — while loss forces
// retransmissions from the shared storage — must never corrupt the
// byte stream.
func TestSendChainRetransmitCoW(t *testing.T) {
	w := newWorld(77)
	w.seg.Faults().SetDefaultRates(fault.Rates{Drop: 0.05})
	const total = 64 * 1024
	payload := make([]byte, total)
	w.rng.Read(payload)
	var received bytes.Buffer

	w.s.Spawn("server", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: 5001})
		w.b.st.Listen(ls, 5)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 8192)
		for {
			n, _, _, err := w.b.st.Recv(p, cs, buf, recvOptsNone())
			if err != nil {
				t.Errorf("server recv: %v", err)
				return
			}
			if n == 0 {
				break
			}
			received.Write(buf[:n])
		}
		w.b.st.Close(p, cs)
	})
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		for off := 0; off < total; off += 8192 {
			c := mbuf.FromBytesCopy(payload[off : off+8192])
			view := c.CopyRegion(0, c.Len()) // the app's retained view
			if _, err := w.a.st.SendChain(p, s, c, stack.SendOpts{}); err != nil {
				t.Error(err)
				view.Release()
				return
			}
			// The retransmit queue may still reference this storage;
			// copy-on-write must isolate the scribble.
			view.WriteAt(bytes.Repeat([]byte{0xee}, view.Len()), 0)
			view.Release()
		}
		w.a.st.Close(p, s)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if w.a.st.Stats.TCPRexmit.Value() == 0 {
		t.Fatal("loss injected but no retransmissions: test exercises nothing")
	}
	if !bytes.Equal(received.Bytes(), payload) {
		t.Fatalf("stream corrupted: got %d bytes", received.Len())
	}
}

// TestStackSpliceZeroCopy forwards a stream through a splicing relay
// socket pair and asserts the relay stack moved every payload byte by
// reference: splice accounting matches the stream length and the
// socket-layer copy counter stays at zero.
func TestStackSpliceZeroCopy(t *testing.T) {
	w := newWorld(78)
	const total = 128 * 1024
	payload := make([]byte, total)
	w.rng.Read(payload)
	var received bytes.Buffer

	// Sink on A.
	w.s.Spawn("sink", func(p *sim.Proc) {
		ls := w.a.st.NewSocket(wire.ProtoTCP)
		w.a.st.Bind(ls, stack.Addr{Port: 9000})
		w.a.st.Listen(ls, 5)
		cs, err := w.a.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 8192)
		for received.Len() < total {
			n, _, _, err := w.a.st.Recv(p, cs, buf, recvOptsNone())
			if err != nil || n == 0 {
				t.Errorf("sink recv: n=%d %v", n, err)
				return
			}
			received.Write(buf[:n])
		}
	})
	// Relay on B: accept from source, connect to sink, splice.
	w.s.Spawn("relay", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: 9001})
		w.b.st.Listen(ls, 5)
		src, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		dst := w.b.st.NewSocket(wire.ProtoTCP)
		if err := w.b.st.Connect(p, dst, stack.Addr{IP: w.a.st.LocalIP(), Port: 9000}); err != nil {
			t.Error(err)
			return
		}
		n, err := w.b.st.Splice(p, dst, src, total)
		if err != nil || n != total {
			t.Errorf("Splice = %d, %v", n, err)
		}
		// Per-socket accounting surfaces in the socket table.
		var spliced int64
		for _, si := range w.b.st.SocketTable() {
			spliced += si.SplicedBytes
		}
		if spliced != 2*total { // source and sink side both count
			t.Errorf("table spliced bytes = %d, want %d", spliced, 2*total)
		}
		w.b.st.Close(p, dst)
		w.b.st.Close(p, src)
	})
	// Source on A.
	w.s.Spawn("source", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 9001}); err != nil {
			t.Error(err)
			return
		}
		for off := 0; off < total; off += 8192 {
			if _, err := w.a.st.Send(p, s, [][]byte{payload[off : off+8192]}, stack.SendOpts{}); err != nil {
				t.Error(err)
				return
			}
		}
		w.a.st.Close(p, s)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(received.Bytes(), payload) {
		t.Fatal("forwarded stream corrupted")
	}
	st := &w.b.st.Stats
	if got := st.SpliceBytes.Value(); got != total {
		t.Errorf("SpliceBytes = %d, want %d", got, total)
	}
	if got := st.SpliceOps.Value(); got != 1 {
		t.Errorf("SpliceOps = %d, want 1", got)
	}
	if got := st.SockCopiedBytes.Value(); got != 0 {
		t.Errorf("relay copied %d payload bytes; splice path must copy none", got)
	}
}

// TestRecvPeekSelectiveCopyCounters checks the Libra-style accounting:
// a peeked view counts as zero-copy receive, and only the declared
// ranges count as copied bytes.
func TestRecvPeekSelectiveCopyCounters(t *testing.T) {
	w := newWorld(79)
	msg := bytes.Repeat([]byte("m"), 4096)

	w.s.Spawn("server", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: 5002})
		w.b.st.Listen(ls, 5)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		got := 0
		for got < len(msg) {
			view, copied, _, err := w.b.st.RecvPeek(p, cs, len(msg), []socketapi.Range{{Off: 0, Len: 32}})
			if err != nil {
				t.Error(err)
				return
			}
			n := view.Len()
			if len(copied) != 1 || len(copied[0]) != 32 {
				t.Errorf("copied ranges = %v", copied)
			}
			if err := w.b.st.RecvRelease(p, cs, n); err != nil {
				t.Error(err)
			}
			view.Release()
			got += n
		}
		st := &w.b.st.Stats
		if st.ZeroCopyRxBytes.Value() != uint64(got) {
			t.Errorf("ZeroCopyRxBytes = %d, want %d", st.ZeroCopyRxBytes.Value(), got)
		}
		if st.SelectiveCopyBytes.Value() == 0 || st.SelectiveCopyBytes.Value() != st.SockCopiedBytes.Value() {
			t.Errorf("SelectiveCopyBytes = %d, SockCopiedBytes = %d",
				st.SelectiveCopyBytes.Value(), st.SockCopiedBytes.Value())
		}
		w.b.st.Close(p, cs)
	})
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5002}); err != nil {
			t.Error(err)
			return
		}
		w.a.st.Send(p, s, [][]byte{msg}, stack.SendOpts{})
		w.a.st.Close(p, s)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
}
