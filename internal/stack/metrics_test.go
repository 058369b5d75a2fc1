package stack

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestStackBindAllocs pins what binding a stack's metrics costs: one
// gauge set (whatever the number of TCP states) and the three histogram
// headers. Registering allocates nothing per instrument, and a stack
// draws no random number until its first connection.
func TestStackBindAllocs(t *testing.T) {
	s := sim.New(1)
	reg := metrics.NewRegistry()
	build := func(sc *metrics.Scope) func() {
		return func() {
			New(Config{
				Sim:      s,
				Name:     "t",
				LocalIP:  wire.IP(10, 0, 0, 1),
				LocalMAC: wire.MAC{1},
				Transmit: func([]byte) error { return nil },
				Metrics:  sc,
			}, nil)
		}
	}
	bare := testing.AllocsPerRun(50, build(nil))
	bound := testing.AllocsPerRun(50, build(reg.Scope("host.a").Sub("stack")))
	const budget = 3 + 3 // the gauge set, its values and its fill closure; three histograms
	if got := bound - bare; got > float64(budget) {
		t.Fatalf("binding metrics made %v allocations (%v with, %v without), want at most %d", got, bound, bare, budget)
	}
	if st := New(Config{Sim: s, Name: "t"}, nil); st.issDraws != nil {
		t.Fatal("New drew from the stack's random stream before any ISS")
	}
}
