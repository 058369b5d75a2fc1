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

// TestDebugLoss is a diagnostic twin of TestTCPSurvivesPacketLoss that
// dumps protocol state when the transfer wedges.
func TestDebugLoss(t *testing.T) {
	w := newWorld(3)
	w.seg.Faults().SetDefaultRates(fault.Rates{Drop: 0.05})
	const total = 64 * 1024
	payload := make([]byte, total)
	w.rng.Read(payload)
	var received bytes.Buffer
	var serverSock, clientSock *stack.Socket
	var sendOff int

	w.s.Spawn("server", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: 5001})
		w.b.st.Listen(ls, 5)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		serverSock = cs
		buf := make([]byte, 8192)
		for {
			n, _, _, err := w.b.st.Recv(p, cs, buf, recvOptsNone())
			if err != nil || n == 0 {
				return
			}
			received.Write(buf[:n])
		}
	})
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		clientSock = s
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: 5001}); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		for sendOff < total {
			n := 4096
			if sendOff+n > total {
				n = total - sendOff
			}
			wrote, err := w.a.st.Send(p, s, [][]byte{payload[sendOff : sendOff+n]}, stack.SendOpts{})
			if err != nil {
				t.Errorf("send: %v", err)
				return
			}
			sendOff += wrote
		}
		w.a.st.Close(p, s)
	})
	err := w.s.Run()
	if err != nil {
		dump := func(name string, st *stack.Stack, s *stack.Socket) string {
			state := "nil"
			if s != nil {
				state = stack.TCPStateOf(s)
			}
			return fmt.Sprintf("%s: state=%s stats=%+v", name, state, st.Stats)
		}
		t.Fatalf("wedged: %v\nsent=%d received=%d\n%s\n%s\nclient detail: %s\nserver detail: %s\nclient waiters: %s\nserver waiters: %s",
			err, sendOff, received.Len(),
			dump("client", w.a.st.Stack, clientSock), dump("server", w.b.st.Stack, serverSock),
			stack.DebugTCB(clientSock), stack.DebugTCB(serverSock),
			stack.DebugWaiters(clientSock), stack.DebugWaiters(serverSock))
		t.Logf("parked: %v", w.s.ParkedProcs())
	}
}
