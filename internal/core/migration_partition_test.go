package core_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/wire"
)

// TestForkWhileNetworkPartitioned migrates a session back to the OS
// server while the network is down. Migration is a local hand-off
// between the library and the server on the same host, so it must
// succeed with the wire dead — and the in-flight data it carries must
// survive until the partition heals and the child's retransmissions can
// finally land. This is the worst ordering for migrate.go: the imported
// session's first tcpOutput transmits straight into the partition.
func TestForkWhileNetworkPartitioned(t *testing.T) {
	w := newWorld(53)
	w.s.Deadline = sim.Time(2 * time.Hour)
	inj := w.seg.Faults()

	const phase1, phase2 = 24 * 1024, 24 * 1024
	payload := make([]byte, phase1+phase2)
	w.rng.Read(payload)
	var got bytes.Buffer

	sink := w.b.NewLibrary("sink")
	w.s.Spawn("sink", func(p *sim.Proc) {
		ls, _ := sink.Socket(p, socketapi.SockStream)
		sink.Bind(p, ls, socketapi.SockAddr{Port: 5001})
		sink.Listen(p, ls, 1)
		fd, _, err := sink.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		for {
			n, err := sink.Recv(p, fd, buf, 0)
			if err != nil {
				t.Errorf("sink recv: %v", err)
				return
			}
			if n == 0 {
				break
			}
			got.Write(buf[:n])
		}
		sink.Close(p, fd)
		sink.Close(p, ls)
	})

	healed := false
	src := w.a.NewLibrary("src")
	w.s.Spawn("src", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := src.Socket(p, socketapi.SockStream)
		if err := src.Connect(p, fd, socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 5001}); err != nil {
			t.Error(err)
			return
		}
		send := func(api socketapi.API, data []byte) bool {
			for off := 0; off < len(data); {
				n, err := api.Send(p, fd, data[off:min(off+4096, len(data))], 0)
				if err != nil {
					t.Errorf("send: %v", err)
					return false
				}
				off += n
			}
			return true
		}
		if !send(src, payload[:phase1]) {
			return
		}
		// Cut the wire, then fork. The send buffer still holds
		// unacknowledged data that now cannot drain; all of it rides the
		// migration back to the server.
		part := inj.Partition([]string{"A"}, []string{"B"})
		child, err := src.Fork(p, "src-child")
		if err != nil {
			t.Errorf("fork under partition: %v", err)
			part.Heal()
			return
		}
		if w.a.Server.Returns.Value() != 1 {
			t.Errorf("returns after fork = %d, want 1", w.a.Server.Returns.Value())
		}
		// Heal while the child is retransmitting into the void; the
		// stream must then complete from the migrated state.
		w.s.After(300*time.Millisecond, func() {
			part.Heal()
			healed = true
		})
		if !send(child, payload[phase1:]) {
			return
		}
		child.Close(p, fd)
		src.Close(p, fd)
		child.ExitProcess(p)
	})

	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !healed {
		t.Fatal("run finished before the partition healed")
	}
	var c fault.Counters
	for _, l := range inj.Links() {
		c.Add(inj.Counters(l))
	}
	if c.PartDrops == 0 {
		t.Fatalf("partition never cut a frame: %+v", c)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		i := 0
		for i < got.Len() && i < len(payload) && got.Bytes()[i] == payload[i] {
			i++
		}
		t.Fatalf("stream corrupted across partitioned fork: %d/%d bytes, first divergence at %d",
			got.Len(), len(payload), i)
	}
	if w.a.Server.Returns.Value() != 1 {
		t.Fatalf("returns = %d, want 1 (the fork)", w.a.Server.Returns.Value())
	}
}
