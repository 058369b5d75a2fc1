package stack_test

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/stack"
	"repro/internal/wire"
)

// tcpFlags returns the TCP flag byte of an Ethernet/IPv4/TCP frame.
func tcpFlags(frame []byte) (flags byte, ok bool) {
	if len(frame) < wire.EthHeaderLen+20 || frame[12] != 0x08 || frame[13] != 0x00 || frame[wire.EthHeaderLen+9] != wire.ProtoTCP {
		return 0, false
	}
	off := wire.EthHeaderLen + int(frame[wire.EthHeaderLen]&0x0f)*4 + 13
	if off >= len(frame) {
		return 0, false
	}
	return frame[off], true
}

const tcpFIN = 0x01

// tcpStates lists the TCP states of every socket a stack still manages.
func tcpStates(st *stack.Stack) []string {
	var out []string
	for _, si := range st.SocketTable() {
		if si.Proto == "tcp" {
			out = append(out, si.State)
		}
	}
	return out
}

// connectPair establishes one connection A -> B:80 and hands both ends
// to body, which runs on A's thread once B has accepted.
func connectPair(t *testing.T, w *world, body func(p *sim.Proc, a, b *stack.Socket)) {
	t.Helper()
	var accepted *stack.Socket
	w.s.Spawn("server", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: 80})
		w.b.st.Listen(ls, 1)
		c, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		accepted = c
		w.b.st.Close(p, ls)
	})
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 80}); err != nil {
			t.Error(err)
			return
		}
		p.Sleep(50 * time.Millisecond)
		if accepted == nil {
			t.Error("server never accepted")
			return
		}
		body(p, s, accepted)
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// Simultaneous close leaves both ends in TIME_WAIT; then a delayed
// duplicate of one side's FIN arrives (in the city runs that found this,
// a retransmission queued behind a congested trunk). RFC 793 has a
// TIME_WAIT socket acknowledge a retransmitted FIN and nothing else:
// acknowledging the peer's pure in-sequence ACK as well makes the two
// TIME_WAIT peers answer each other for ever, each ACK re-arming 2MSL,
// so neither socket ever closes.
func TestTimeWaitIgnoresPureAck(t *testing.T) {
	w := newWorld(11)
	var finA []byte
	replayed, afterReplay := false, 0
	count := func(frame []byte) bool {
		if replayed {
			afterReplay++
		}
		return true
	}
	w.a.txFilter = func(frame []byte) bool {
		if f, ok := tcpFlags(frame); ok && f&tcpFIN != 0 && finA == nil {
			finA = append([]byte(nil), frame...)
		}
		return count(frame)
	}
	w.b.txFilter = count

	connectPair(t, w, func(p *sim.Proc, a, b *stack.Socket) {
		w.s.Spawn("close-b", func(p *sim.Proc) { w.b.st.Close(p, b) })
		w.a.st.Close(p, a)
		p.Sleep(time.Second)
		if sa, sb := tcpStates(w.a.st.Stack), tcpStates(w.b.st.Stack); len(sa) != 1 || len(sb) != 1 || sa[0] != "TIME_WAIT" || sb[0] != "TIME_WAIT" {
			t.Fatalf("after simultaneous close: A %v, B %v, want TIME_WAIT on both", sa, sb)
		}
		replayed = true
		if err := w.a.host.NIC.Transmit(finA); err != nil {
			t.Fatal(err)
		}
		// B restarts 2MSL on the duplicate FIN; one slow-timer tick on top.
		p.Sleep(61 * time.Second)
		if sa, sb := tcpStates(w.a.st.Stack), tcpStates(w.b.st.Stack); len(sa)+len(sb) != 0 {
			t.Errorf("sockets left 2MSL after the duplicate FIN: A %v, B %v", sa, sb)
		}
	})
	if afterReplay >= 20 {
		t.Errorf("%d frames answered one duplicate FIN, want B's re-ACK and nothing else (ACK war)", afterReplay)
	}
}

// A closed socket whose FIN was acknowledged but whose peer never sends
// its own FIN (here: the peer just stays in CLOSE_WAIT) can receive
// nothing more, so FIN_WAIT_2 must time out — BSD arms TCPT_2MSL there
// "because if we don't get a FIN we'll hang forever". A socket that only
// shut its write side is still readable and must be left alone.
func TestFinWait2TimesOutOnlyWhenClosed(t *testing.T) {
	cases := map[string]struct {
		close  func(w *world, p *sim.Proc, a *stack.Socket) *stack.Stack
		reaped bool
	}{
		"close": {func(w *world, p *sim.Proc, a *stack.Socket) *stack.Stack {
			w.a.st.Close(p, a)
			return w.a.st.Stack
		}, true},
		"shutdown-then-close": {func(w *world, p *sim.Proc, a *stack.Socket) *stack.Stack {
			w.a.st.Shutdown(p, a, socketapi.ShutWr)
			p.Sleep(time.Second) // FIN acknowledged: FIN_WAIT_2 before the close
			w.a.st.Close(p, a)
			return w.a.st.Stack
		}, true},
		"imported-then-close": {func(w *world, p *sim.Proc, a *stack.Socket) *stack.Stack {
			w.a.st.Shutdown(p, a, socketapi.ShutWr)
			p.Sleep(time.Second)
			ss := new(stack.TCPSessionState)
			if err := w.a.st.ExportTCPSession(p, a, ss); err != nil {
				panic(err)
			}
			w.a.st.Close(p, w.a.st.ImportTCPSession(p, ss))
			return w.a.st.Stack
		}, true},
		"shutdown-only": {func(w *world, p *sim.Proc, a *stack.Socket) *stack.Stack {
			w.a.st.Shutdown(p, a, socketapi.ShutWr)
			return w.a.st.Stack
		}, false},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			w := newWorld(12)
			connectPair(t, w, func(p *sim.Proc, a, _ *stack.Socket) {
				st := tc.close(w, p, a)
				p.Sleep(time.Second)
				if got := tcpStates(st); len(got) != 1 || got[0] != "FIN_WAIT_2" {
					t.Fatalf("after the FIN is acknowledged: %v, want [FIN_WAIT_2]", got)
				}
				p.Sleep(5 * time.Minute)
				got := tcpStates(st)
				if tc.reaped && len(got) != 0 {
					t.Errorf("closed socket still %v five minutes after FIN_WAIT_2", got)
				}
				if !tc.reaped && (len(got) != 1 || got[0] != "FIN_WAIT_2") {
					t.Errorf("half-closed but open socket is %v, want [FIN_WAIT_2] left alone", got)
				}
			})
		})
	}
}
