package stack

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestStackBindAllocs pins what binding a stack's metrics costs: the
// gauge closures, the tcp_state scope and the three histogram headers.
// Registering allocates nothing per instrument, and a stack opens no
// random stream until its first connection.
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
	const closures = 2 + len(tcpStateNames) // checksum_errors, sockets, one per TCP state
	const budget = closures + 4             // + the tcp_state scope and three histograms
	if got := bound - bare; got > float64(budget) {
		t.Fatalf("binding metrics made %v allocations (%v with, %v without), want at most %d", got, bound, bare, budget)
	}
	if st := New(Config{Sim: s, Name: "t"}, nil); st.rng != nil {
		t.Fatal("New opened the stack's random stream before any ISS draw")
	}
}
