package simnet

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/wire"
)

// delivery is what one station saw of one frame.
type delivery struct {
	station string
	owned   bool
	data    []byte
}

// TestDeliveryOwnership is the ownership table: a delivery is Owned
// exactly when no other delivery shares its buffer, and the flag never
// costs a copy — an owned zero-fault delivery is the sender's own buffer.
func TestDeliveryOwnership(t *testing.T) {
	mA, mB, mC := wire.MAC{1}, wire.MAC{2}, wire.MAC{3}
	cases := []struct {
		name    string
		trunk   bool
		dst     wire.MAC
		promisc bool        // attach station "c" in promiscuous mode
		twin    bool        // attach station "c" with b's MAC
		rates   fault.Rates // on the sender's link
		want    map[string]int
		owned   bool
		sameBuf bool // every delivery is the sender's buffer
		shared  bool // the deliveries share one buffer
	}{
		{name: "unicast", dst: mB, want: map[string]int{"b": 1}, owned: true, sameBuf: true},
		{name: "broadcast", dst: wire.BroadcastMAC, want: map[string]int{"b": 1, "c": 1}, sameBuf: true, shared: true},
		{name: "promiscuous", dst: mB, promisc: true, want: map[string]int{"b": 1, "c": 1}, sameBuf: true, shared: true},
		{name: "two stations one MAC", dst: mB, twin: true, want: map[string]int{"b": 1, "c": 1}, sameBuf: true, shared: true},
		{name: "dup", dst: mB, rates: fault.Rates{Dup: 1}, want: map[string]int{"b": 2}, sameBuf: true, shared: true},
		{name: "corrupt", dst: mB, rates: fault.Rates{Corrupt: 1}, want: map[string]int{"b": 1}, owned: true},
		{name: "trunk", trunk: true, dst: mB, want: map[string]int{"b": 1}, owned: true, sameBuf: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			var g *Segment
			if tc.trunk {
				g = NewTrunk(s, time.Millisecond)
			} else {
				g = NewSegment(s)
			}
			a := g.AttachOn(s, "a", mA)
			var got []delivery
			watch := func(n *NIC) {
				n.Rx = func(f Frame) { got = append(got, delivery{n.Name(), f.Owned, f.Data}) }
			}
			watch(g.AttachOn(s, "b", mB))
			if !tc.trunk {
				mac := mC
				if tc.twin {
					mac = mB
				}
				c := g.AttachOn(s, "c", mac)
				c.Promisc = tc.promisc
				watch(c)
			}
			if tc.rates != (fault.Rates{}) {
				g.Faults().SetLinkRates("a", tc.rates)
			}
			sent := frameTo(tc.dst, mA, 100)
			if err := a.Transmit(sent); err != nil {
				t.Fatal(err)
			}
			if err := s.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			count := map[string]int{}
			for _, d := range got {
				count[d.station]++
				if d.owned != tc.owned {
					t.Errorf("%s: Owned = %v, want %v", d.station, d.owned, tc.owned)
				}
				if same := &d.data[0] == &sent[0]; same != tc.sameBuf {
					t.Errorf("%s: delivery is the sender's buffer = %v, want %v", d.station, same, tc.sameBuf)
				}
			}
			if len(count) != len(tc.want) {
				t.Fatalf("deliveries %v, want %v", count, tc.want)
			}
			for st, n := range tc.want {
				if count[st] != n {
					t.Fatalf("deliveries %v, want %v", count, tc.want)
				}
			}
			if tc.shared && &got[0].data[0] != &got[1].data[0] {
				t.Error("the two deliveries do not share one buffer")
			}
		})
	}
}

// TestLostAndDelayedFramesAllocateNothing: a frame the fault layer loses
// goes back to mbuf's pools, so the sender's next frame reuses its
// array, and a delayed delivery rides a pooled job: once warm, neither
// allocates.
func TestLostAndDelayedFramesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	for _, tc := range []struct {
		name  string
		rates fault.Rates
		rx    int // deliveries per frame
	}{
		{"lost", fault.Rates{Drop: 1}, 0},
		{"delayed", fault.Rates{Delay: time.Millisecond}, 1},
	} {
		s := sim.New(1)
		g := NewSegment(s)
		a, b := g.AttachOn(s, "a", wire.MAC{1}), g.AttachOn(s, "b", wire.MAC{2})
		got := 0
		b.Rx = func(f Frame) {
			got++
			if f.Owned {
				mbuf.Free(f.Data)
			}
		}
		g.Faults().SetLinkRates("a", tc.rates)
		template := frameTo(wire.MAC{2}, wire.MAC{1}, 100)
		send := func() {
			f := mbuf.Frame(len(template))
			copy(f, template)
			if err := a.Transmit(f); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}
		send() // warm the pools and the job lists
		if n := testing.AllocsPerRun(100, send); n != 0 {
			t.Errorf("%s: a frame allocates %.2f objects once warm, want 0", tc.name, n)
		}
		if want := 102 * tc.rx; got != want {
			t.Errorf("%s: %d deliveries, want %d", tc.name, got, want)
		}
	}
}
