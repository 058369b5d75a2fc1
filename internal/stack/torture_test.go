package stack_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/wire"
)

// tortureCases is the fault matrix both the stack-level torture test
// and the deployment-level robustness matrix (psd package) run over:
// loss, duplication, reordering, their combination, and a mid-transfer
// partition that heals before TCP gives up. Plans use the fault-plan
// DSL; host/link names in this file's world are "A" and "B".
var tortureCases = []struct {
	Name  string
	Rates fault.Rates
	Plan  string
}{
	{"clean", fault.Rates{}, ""},
	{"loss2", fault.Rates{Drop: 0.02}, ""},
	{"loss10", fault.Rates{Drop: 0.10}, ""},
	{"dup5", fault.Rates{Dup: 0.05}, ""},
	{"reorder10", fault.Rates{Reorder: 0.10, ReorderBy: 3 * time.Millisecond}, ""},
	{"everything", fault.Rates{Drop: 0.05, Dup: 0.05, Reorder: 0.10, ReorderBy: 3 * time.Millisecond}, ""},
	{"partheal", fault.Rates{}, "@150ms partition A|B for=400ms"},
}

// TestTCPTortureMatrix runs bidirectional TCP transfers under combined
// loss, duplication, reordering, and partition-and-heal across many
// seeds, asserting the byte streams arrive intact in both directions.
// This is the stack's main robustness property: whatever the network
// does (short of corruption, which checksums catch), TCP delivers the
// exact stream.
func TestTCPTortureMatrix(t *testing.T) {
	for _, c := range tortureCases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				runTorture(t, seed, c.Rates, c.Plan)
			}
		})
	}
}

func runTorture(t *testing.T, seed int64, rates fault.Rates, planText string) {
	t.Helper()
	w := newWorld(seed)
	w.s.Deadline = sim.Time(3 * time.Hour)
	w.seg.Faults().SetDefaultRates(rates)
	if planText != "" {
		plan, err := fault.ParsePlan(planText)
		if err != nil {
			t.Fatalf("bad fault plan: %v", err)
		}
		w.seg.Faults().Schedule(plan)
	}

	const fwdBytes, revBytes = 48 * 1024, 24 * 1024
	fwd := make([]byte, fwdBytes)
	rev := make([]byte, revBytes)
	w.rng.Read(fwd)
	w.rng.Read(rev)
	var gotFwd, gotRev bytes.Buffer

	// B accepts, reads the forward stream, and simultaneously writes the
	// reverse stream from a second thread.
	w.s.Spawn("b-main", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: 5001})
		w.b.st.Listen(ls, 1)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Errorf("seed %d: accept: %v", seed, err)
			return
		}
		w.s.Spawn("b-writer", func(wp *sim.Proc) {
			off := 0
			for off < revBytes {
				n, err := w.b.st.Send(wp, cs, [][]byte{rev[off:min(off+2048, revBytes)]}, stack.SendOpts{})
				if err != nil {
					t.Errorf("seed %d: b send: %v", seed, err)
					return
				}
				off += n
			}
			w.b.st.Shutdown(wp, cs, 1 /* ShutWr */)
		})
		buf := make([]byte, 4096)
		for {
			n, _, _, err := w.b.st.Recv(p, cs, buf, stack.RecvOpts{})
			if err != nil {
				t.Errorf("seed %d: b recv: %v", seed, err)
				return
			}
			if n == 0 {
				return
			}
			gotFwd.Write(buf[:n])
		}
	})

	w.s.Spawn("a-main", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}); err != nil {
			t.Errorf("seed %d: connect: %v", seed, err)
			return
		}
		w.s.Spawn("a-writer", func(wp *sim.Proc) {
			off := 0
			for off < fwdBytes {
				n, err := w.a.st.Send(wp, s, [][]byte{fwd[off:min(off+3000, fwdBytes)]}, stack.SendOpts{})
				if err != nil {
					t.Errorf("seed %d: a send: %v", seed, err)
					return
				}
				off += n
			}
			w.a.st.Shutdown(wp, s, 1)
		})
		buf := make([]byte, 4096)
		for {
			n, _, _, err := w.a.st.Recv(p, s, buf, stack.RecvOpts{})
			if err != nil {
				t.Errorf("seed %d: a recv: %v", seed, err)
				return
			}
			if n == 0 {
				return
			}
			gotRev.Write(buf[:n])
		}
	})

	if err := w.s.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if !bytes.Equal(gotFwd.Bytes(), fwd) {
		t.Fatalf("seed %d: forward stream corrupted (%d/%d bytes)", seed, gotFwd.Len(), fwdBytes)
	}
	if !bytes.Equal(gotRev.Bytes(), rev) {
		t.Fatalf("seed %d: reverse stream corrupted (%d/%d bytes)", seed, gotRev.Len(), revBytes)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestTCPUrgentData exercises MSG_OOB end to end: the urgent byte is
// delivered out of band while the in-band stream stays intact.
func TestTCPUrgentData(t *testing.T) {
	w := newWorld(20)
	var inband bytes.Buffer
	var oob []byte

	w.s.Spawn("server", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: 5001})
		w.b.st.Listen(ls, 1)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 100)
		for inband.Len() < 10 {
			n, _, _, err := w.b.st.Recv(p, cs, buf, stack.RecvOpts{})
			if err != nil || n == 0 {
				t.Errorf("recv: n=%d err=%v", n, err)
				return
			}
			inband.Write(buf[:n])
		}
		ob := make([]byte, 1)
		n, _, _, err := w.b.st.Recv(p, cs, ob, stack.RecvOpts{OOB: true})
		if err != nil || n != 1 {
			t.Errorf("oob recv: n=%d err=%v", n, err)
			return
		}
		oob = append(oob, ob[0])
	})
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		w.a.st.Send(p, s, [][]byte{[]byte("hello")}, stack.SendOpts{})
		w.a.st.Send(p, s, [][]byte{[]byte("!")}, stack.SendOpts{OOB: true})
		w.a.st.Send(p, s, [][]byte{[]byte("world")}, stack.SendOpts{})
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := inband.String(); got != "hello!worl" && got != "hello!world"[:inband.Len()] {
		t.Fatalf("inband = %q", got)
	}
	if len(oob) != 1 || oob[0] != '!' {
		t.Fatalf("oob = %q, want '!'", oob)
	}
}

// TestTCPNagleCoalesces verifies sender-side small-write coalescing: many
// small writes with data in flight produce far fewer segments than
// writes, and TCP_NODELAY disables the behaviour.
func TestTCPNagleCoalesces(t *testing.T) {
	run := func(noDelay bool) int {
		w := newWorld(21)
		done := make(chan struct{})
		_ = done
		var segs int
		w.s.Spawn("server", func(p *sim.Proc) {
			ls := w.b.st.NewSocket(wire.ProtoTCP)
			w.b.st.Bind(ls, stack.Addr{Port: 5001})
			w.b.st.Listen(ls, 1)
			cs, err := w.b.st.Accept(p, ls)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 4096)
			total := 0
			for total < 400 {
				n, _, _, err := w.b.st.Recv(p, cs, buf, stack.RecvOpts{})
				if err != nil || n == 0 {
					return
				}
				total += n
			}
		})
		w.s.Spawn("client", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			s := w.a.st.NewSocket(wire.ProtoTCP)
			if noDelay {
				w.a.st.SetOption(s, 3 /* TCPNoDelay */, 1)
			}
			if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}); err != nil {
				t.Error(err)
				return
			}
			before := w.a.st.Stats.TCPOut.Value()
			for i := 0; i < 100; i++ {
				if _, err := w.a.st.Send(p, s, [][]byte{[]byte("abcd")}, stack.SendOpts{}); err != nil {
					t.Error(err)
					return
				}
			}
			// Wait for everything to drain so all segments are counted.
			p.Sleep(2 * time.Second)
			segs = int(w.a.st.Stats.TCPOut.Value() - before)
		})
		if err := w.s.Run(); err != nil {
			t.Fatal(err)
		}
		return segs
	}
	nagle := run(false)
	nodelay := run(true)
	if nagle >= nodelay {
		t.Fatalf("Nagle (%d segments) should coalesce more than TCP_NODELAY (%d)", nagle, nodelay)
	}
	if nagle > 40 {
		t.Fatalf("Nagle sent %d segments for 100 tiny writes; expected heavy coalescing", nagle)
	}
}

// TestTCPRexmitBackoffGivesUp verifies ETIMEDOUT after repeated
// retransmissions when the peer vanishes mid-connection.
func TestTCPRexmitBackoffGivesUp(t *testing.T) {
	w := newWorld(22)
	w.s.Deadline = sim.Time(3 * time.Hour)
	var sendErr error
	w.s.Spawn("server", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: 5001})
		w.b.st.Listen(ls, 1)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		// Read one byte so the connection is fully established on both
		// sides, then exit; the partition happens after this.
		buf := make([]byte, 1)
		w.b.st.Recv(p, cs, buf, stack.RecvOpts{})
	})
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		if _, err := w.a.st.Send(p, s, [][]byte{[]byte("x")}, stack.SendOpts{}); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(100 * time.Millisecond)
		// Partition the network: everything is lost from here on.
		w.seg.Faults().Partition([]string{"A"}, []string{"B"})
		if _, err := w.a.st.Send(p, s, [][]byte{[]byte("into the void")}, stack.SendOpts{}); err != nil {
			sendErr = err
			return
		}
		// The send was buffered; the failure surfaces on a later call
		// once the retransmission timer gives up.
		buf := make([]byte, 10)
		_, _, _, sendErr = w.a.st.Recv(p, s, buf, stack.RecvOpts{})
	})
	if err := w.s.Run(); err != nil {
		t.Fatalf("%v (parked: %v)", err, w.s.ParkedProcs())
	}
	if sendErr == nil {
		t.Fatal("expected ETIMEDOUT after retransmission backoff")
	}
	if got := fmt.Sprint(sendErr); got != "connection timed out (ETIMEDOUT)" {
		t.Fatalf("err = %v, want ETIMEDOUT", sendErr)
	}
	if w.a.st.Stats.TCPRexmit.Value() < 5 {
		t.Fatalf("rexmits = %d; expected several backoff rounds", w.a.st.Stats.TCPRexmit.Value())
	}
}

// TestSimultaneousClose drives both ends through close at the same time
// (FIN_WAIT_1 -> CLOSING -> TIME_WAIT on both sides).
func TestSimultaneousClose(t *testing.T) {
	w := newWorld(23)
	var sa, sb *stack.Socket
	ready := 0
	w.s.Spawn("b", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: 5001})
		w.b.st.Listen(ls, 1)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		sb = cs
		ready++
		for ready < 2 {
			p.Sleep(time.Millisecond)
		}
		w.b.st.Close(p, cs)
	})
	w.s.Spawn("a", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		sa = s
		ready++
		for ready < 2 {
			p.Sleep(time.Millisecond)
		}
		w.a.st.Close(p, s)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.s.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	stA, stB := stack.TCPStateOf(sa), stack.TCPStateOf(sb)
	okState := func(s string) bool { return s == "TIME_WAIT" || s == "CLOSED" }
	if !okState(stA) || !okState(stB) {
		t.Fatalf("states after simultaneous close: %s / %s", stA, stB)
	}
	if err := w.s.RunFor(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	if stack.TCPStateOf(sa) != "CLOSED" || stack.TCPStateOf(sb) != "CLOSED" {
		t.Fatalf("states after 2MSL: %s / %s", stack.TCPStateOf(sa), stack.TCPStateOf(sb))
	}
}

// TestRSTMidTransfer: a peer that aborts mid-stream surfaces ECONNRESET
// to the reader.
func TestRSTMidTransfer(t *testing.T) {
	w := newWorld(24)
	var readErr error
	w.s.Spawn("b", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: 5001})
		w.b.st.Listen(ls, 1)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 100)
		w.b.st.Recv(p, cs, buf, stack.RecvOpts{})
		w.b.st.Abort(p, cs) // RST instead of FIN
	})
	w.s.Spawn("a", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		w.a.st.Send(p, s, [][]byte{[]byte("hi")}, stack.SendOpts{})
		buf := make([]byte, 100)
		_, _, _, readErr = w.a.st.Recv(p, s, buf, stack.RecvOpts{})
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if readErr == nil {
		t.Fatal("expected ECONNRESET from peer abort")
	}
}

// TestKeepaliveDetectsDeadPeer: with SO_KEEPALIVE, an idle connection
// whose peer has vanished is torn down with ETIMEDOUT; one whose peer is
// alive survives (the probes are answered).
func TestKeepaliveDetectsDeadPeer(t *testing.T) {
	run := func(partition bool) (err error, probes int) {
		w := newWorld(40)
		w.s.Deadline = sim.Time(6 * time.Hour)
		var clientErr error
		w.s.Spawn("server", func(p *sim.Proc) {
			ls := w.b.st.NewSocket(wire.ProtoTCP)
			w.b.st.Bind(ls, stack.Addr{Port: 5001})
			w.b.st.Listen(ls, 1)
			cs, err := w.b.st.Accept(p, ls)
			if err != nil {
				t.Error(err)
				return
			}
			_ = cs // idle peer: answers probes only through its stack
		})
		w.s.Spawn("client", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			s := w.a.st.NewSocket(wire.ProtoTCP)
			w.a.st.SetOption(s, 4 /* SoKeepAlive */, 1)
			if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}); err != nil {
				t.Error(err)
				return
			}
			if partition {
				w.seg.Faults().Partition([]string{"A"}, []string{"B"})
			}
			// Sit idle far past the keepalive threshold (60 s idle +
			// 8 probes x 10 s). A live peer keeps the connection up; a
			// partitioned one gets ETIMEDOUT.
			buf := make([]byte, 8)
			_, _, _, clientErr = w.a.st.Recv(p, s, buf, stack.RecvOpts{})
		})
		// Give keepalive time to act, then release the (live-peer) reader.
		w.s.SpawnDaemon("release", func(p *sim.Proc) {
			p.Sleep(5 * time.Minute)
			if !partition {
				// Live peer: nothing will ever arrive; the connection must
				// still be ESTABLISHED. Stop the run.
				w.s.Stop()
			}
		})
		if err := w.s.Run(); err != nil && clientErr == nil {
			t.Fatal(err)
		}
		return clientErr, int(w.a.st.Stats.TCPOut.Value())
	}

	err, _ := run(true)
	if err == nil {
		t.Fatal("partitioned idle connection not torn down by keepalive")
	}
	err, _ = run(false)
	if err != nil {
		t.Fatalf("live idle connection torn down: %v", err)
	}
}
