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

// TestForkMidTransferUnderLoss is the hardest migration interaction: a
// bulk transfer is interrupted by fork — which returns the session to the
// OS server with unacknowledged data still in flight — on a lossy
// network, and then continues through the server. The byte stream must
// arrive intact: the migrated state (send queue, sequence numbers,
// retransmission obligations) has to survive the round trip between
// address spaces while segments are being lost and retransmitted.
func TestForkMidTransferUnderLoss(t *testing.T) {
	for _, loss := range []float64{0, 0.03} {
		loss := loss
		name := "clean"
		if loss > 0 {
			name = "lossy"
		}
		t.Run(name, func(t *testing.T) {
			w := newWorld(51)
			w.s.Deadline = sim.Time(2 * time.Hour)
			w.seg.Faults().SetDefaultRates(fault.Rates{Drop: loss})

			const phase1, phase2 = 32 * 1024, 16 * 1024
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

			src := w.a.NewLibrary("src")
			w.s.Spawn("src", func(p *sim.Proc) {
				p.Sleep(time.Millisecond)
				fd, _ := src.Socket(p, socketapi.SockStream)
				if err := src.Connect(p, fd, socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 5001}); err != nil {
					t.Error(err)
					return
				}
				send := func(api socketapi.API, tp *sim.Proc, data []byte) bool {
					for off := 0; off < len(data); {
						n, err := api.Send(tp, fd, data[off:min(off+4096, len(data))], 0)
						if err != nil {
							t.Errorf("send: %v", err)
							return false
						}
						off += n
					}
					return true
				}
				// Phase 1 in the parent's protocol library.
				if !send(src, p, payload[:phase1]) {
					return
				}
				// Fork immediately: the send buffer very likely still holds
				// unacknowledged (and possibly unsent) data, all of which
				// must migrate back to the OS server intact.
				child, err := src.Fork(p, "src-child")
				if err != nil {
					t.Errorf("fork: %v", err)
					return
				}
				// Phase 2 from the child, routed through the server.
				if !send(child, p, payload[phase1:]) {
					return
				}
				child.Close(p, fd)
				src.Close(p, fd)
				child.ExitProcess(p)
			})

			if err := w.s.Run(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), payload) {
				// Find the first divergence for a useful message.
				i := 0
				for i < got.Len() && i < len(payload) && got.Bytes()[i] == payload[i] {
					i++
				}
				t.Fatalf("stream corrupted across fork migration: %d/%d bytes, first divergence at %d",
					got.Len(), len(payload), i)
			}
			if w.a.Server.Returns.Value() != 1 {
				t.Fatalf("returns = %d, want 1 (the fork)", w.a.Server.Returns.Value())
			}
		})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
