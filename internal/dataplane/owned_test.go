package dataplane

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// TestDuplicateThroughHost: the plane as a kern.Host's hook, fed a
// duplicated client SYN. Both halves share one read-only buffer, so the
// host must hand the plane a copy of each: the backend then receives the
// SYN twice, rewritten identically, from one tracked flow. Rewriting the
// shared buffer in place would hand the second half over already
// rewritten, and the plane would pass it up instead of forwarding it.
func TestDuplicateThroughHost(t *testing.T) {
	for _, prof := range []costs.Profile{costs.DECLibrarySHMIPF(), costs.DECLibrarySHMIPFOffload()} {
		s := sim.New(1)
		seg := simnet.NewSegment(s)
		lb := kern.NewHost(s, seg, "lb", lbMAC, lbIP, prof)
		p := New(Config{Sim: s, Name: "lb", LocalIP: lbIP, LocalMAC: lbMAC, Transmit: lb.Transmit})
		lb.SetHook(p)
		v, err := p.InstallVIP(vipIP, vipPort, []Backend{
			{Name: "be1", IP: be1IP, Port: bePort, MAC: be1MAC},
			{Name: "be2", IP: be2IP, Port: bePort, MAC: be2MAC},
		})
		if err != nil {
			t.Fatal(err)
		}
		client := seg.AttachNamed("client", clientMAC)
		var got [][]byte
		for _, m := range []wire.MAC{be1MAC, be2MAC} {
			seg.AttachNamed(m.String(), m).Rx = func(f simnet.Frame) { got = append(got, append([]byte(nil), f.Data...)) }
		}
		seg.Faults().SetLinkRates("client", fault.Rates{Dup: 1})
		client.Transmit(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPSyn, 1000, 0, nil))
		if err := s.RunFor(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}

		if len(got) != 2 {
			t.Fatalf("%s: backends received %d frames, want 2", prof.Name, len(got))
		}
		if !bytes.Equal(got[0], got[1]) {
			t.Errorf("%s: the two forwards differ:\n%x\n%x", prof.Name, got[0], got[1])
		}
		f := p.sortedFlows()[0]
		b := v.backends[f.backend]
		w, ok := wire.Dissect(got[0])
		want := wire.Flow{Src: lbIP, SrcPort: f.snat, Dst: b.IP, DstPort: b.Port, Proto: wire.ProtoTCP}
		if !ok || w.Flow != want || w.TTL != wire.DefaultTTL-1 || !w.TransportSumOK(got[0]) {
			t.Errorf("%s: forwarded %+v TTL %d, want %+v TTL %d with a good checksum", prof.Name, w.Flow, w.TTL, want, wire.DefaultTTL-1)
		}
		st := &p.Stats
		if p.FlowCount() != 1 || st.CTCreated.Value() != 1 || st.LBConns.Value() != 1 || st.Rewrites.Value() != 2 || st.Hairpins.Value() != 2 {
			t.Errorf("%s: flows/created/conns/rewrites/hairpins = %d/%d/%d/%d/%d, want 1/1/1/2/2", prof.Name,
				p.FlowCount(), st.CTCreated.Value(), st.LBConns.Value(), st.Rewrites.Value(), st.Hairpins.Value())
		}
		if lb.HookAbsorbed.Value() != 2 {
			t.Errorf("%s: host absorbed %d frames into the hook, want 2", prof.Name, lb.HookAbsorbed.Value())
		}
	}
}
