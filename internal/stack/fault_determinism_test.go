package stack_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stack"
	"repro/internal/wire"
)

// faultRunSignature captures everything a fault-injected run produced
// that could reveal nondeterminism: wire-level activity, per-link fault
// decisions, protocol-level recovery work, payload integrity, and the
// exact virtual time the workload finished at.
type faultRunSignature struct {
	Seg        simnet.Stats
	FaultsA    fault.Counters
	FaultsB    fault.Counters
	RexmitA    uint64
	RexmitB    uint64
	ChecksumsA uint64
	ChecksumsB uint64
	BytesAtoB  int
	BytesBtoA  int
	FwdOK      bool
	RevOK      bool
	FinalTime  sim.Time
}

// runFaultWorkload runs two simultaneous TCP transfers (one in each
// direction, on separate connections) under heavy fault injection plus
// a scheduled partition, and returns the run's signature.
func runFaultWorkload(t *testing.T, seed int64) faultRunSignature {
	t.Helper()
	w := newWorld(seed)
	w.s.Deadline = sim.Time(3 * time.Hour)
	inj := w.seg.Faults()
	inj.SetDefaultRates(fault.Rates{
		Drop:      0.05,
		Dup:       0.03,
		Corrupt:   0.06,
		Reorder:   0.08,
		ReorderBy: 2 * time.Millisecond,
		Jitter:    300 * time.Microsecond,
	})
	plan, err := fault.ParsePlan("@120ms partition A|B for=300ms")
	if err != nil {
		t.Fatal(err)
	}
	inj.Schedule(plan)

	const xferBytes = 48 * 1024
	fwd := make([]byte, xferBytes)
	rev := make([]byte, xferBytes)
	w.rng.Read(fwd)
	w.rng.Read(rev)
	var gotFwd, gotRev bytes.Buffer

	serve := func(n *node, port uint16, into *bytes.Buffer) func(*sim.Proc) {
		return func(p *sim.Proc) {
			ls := n.st.NewSocket(wire.ProtoTCP)
			n.st.Bind(ls, stack.Addr{Port: port})
			n.st.Listen(ls, 1)
			cs, err := n.st.Accept(p, ls)
			if err != nil {
				t.Errorf("accept on %d: %v", port, err)
				return
			}
			buf := make([]byte, 4096)
			for {
				rn, _, _, err := n.st.Recv(p, cs, buf, stack.RecvOpts{})
				if err != nil {
					t.Errorf("recv on %d: %v", port, err)
					return
				}
				if rn == 0 {
					return
				}
				into.Write(buf[:rn])
			}
		}
	}
	push := func(n *node, peer *node, port uint16, data []byte) func(*sim.Proc) {
		return func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			s := n.st.NewSocket(wire.ProtoTCP)
			if err := n.st.Connect(p, s, stack.Addr{IP: peer.st.LocalIP(), Port: port}); err != nil {
				t.Errorf("connect to %d: %v", port, err)
				return
			}
			off := 0
			for off < len(data) {
				wn, err := n.st.Send(p, s, [][]byte{data[off:min(off+2048, len(data))]}, stack.SendOpts{})
				if err != nil {
					t.Errorf("send to %d: %v", port, err)
					return
				}
				off += wn
			}
			n.st.Close(p, s)
		}
	}
	w.s.Spawn("b-serve", serve(w.b, 5001, &gotFwd))
	w.s.Spawn("a-serve", serve(w.a, 5002, &gotRev))
	w.s.Spawn("a-push", push(w.a, w.b, 5001, fwd))
	w.s.Spawn("b-push", push(w.b, w.a, 5002, rev))
	if err := w.s.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return faultRunSignature{
		Seg:        *w.seg.Stats(),
		FaultsA:    inj.Counters("A"),
		FaultsB:    inj.Counters("B"),
		RexmitA:    w.a.st.Stats.TCPRexmit.Value(),
		RexmitB:    w.b.st.Stats.TCPRexmit.Value(),
		ChecksumsA: w.a.st.Stats.ChecksumErrors(),
		ChecksumsB: w.b.st.Stats.ChecksumErrors(),
		BytesAtoB:  gotFwd.Len(),
		BytesBtoA:  gotRev.Len(),
		FwdOK:      bytes.Equal(gotFwd.Bytes(), fwd),
		RevOK:      bytes.Equal(gotRev.Bytes(), rev),
		FinalTime:  w.s.Now(),
	}
}

// TestFaultInjectionIsSeedDeterministic is the regression gate for the
// fault layer's core promise: the same seed replays the same run, bit
// for bit — same wire traffic, same fault decisions, same
// retransmissions, same finish time — and a different seed does not.
func TestFaultInjectionIsSeedDeterministic(t *testing.T) {
	first := runFaultWorkload(t, 11)
	if !first.FwdOK || !first.RevOK {
		t.Fatalf("transfer corrupted under faults: %+v", first)
	}
	if first.Seg.FramesDropped() == 0 || first.Seg.FramesCorrupted.Value() == 0 || first.Seg.PartitionDrops.Value() == 0 {
		t.Fatalf("fault injection not active: %+v", first.Seg)
	}
	if first.RexmitA+first.RexmitB == 0 {
		t.Fatalf("no retransmissions under 5%% loss + partition")
	}
	if first.ChecksumsA+first.ChecksumsB == 0 {
		t.Fatalf("no checksum discards despite corruption injection")
	}

	again := runFaultWorkload(t, 11)
	if first != again {
		t.Fatalf("same seed diverged:\n run 1: %+v\n run 2: %+v", first, again)
	}

	other := runFaultWorkload(t, 12)
	if !other.FwdOK || !other.RevOK {
		t.Fatalf("transfer corrupted under faults (seed 12): %+v", other)
	}
	if first == other {
		t.Fatalf("different seeds produced identical runs: %+v", first)
	}
}
