package arch_test

import (
	"testing"

	"repro/internal/apitest"
	"repro/internal/arch"
	"repro/internal/costs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// TestConformance runs the socket conformance suite on the four columns,
// each built the way every harness builds it: the two baselines, the
// library architecture, and the library behind the simulated NIC offload
// engine (TSO/LRO/checksum/moderation).
func TestConformance(t *testing.T) {
	var cols []apitest.Column
	for _, c := range []struct {
		name string
		spec arch.Spec
	}{
		{"inkernel", arch.Spec{Prof: costs.DECKernelMach25()}},
		{"uxserver", arch.Spec{Prof: costs.DECServerUX()}},
		{"library", arch.Spec{Prof: costs.DECLibrarySHMIPF(), SrvProf: costs.DECServerUX()}},
		{"offload", arch.Spec{Prof: costs.DECLibrarySHMIPFOffload(), SrvProf: costs.DECServerUX()}},
	} {
		cols = append(cols, apitest.Column{Name: c.name, Build: func(seed int64) *apitest.Env {
			s := sim.New(seed)
			seg := simnet.NewSegment(s)
			ipA, ipB := wire.IP(10, 0, 0, 1), wire.IP(10, 0, 0, 2)
			sysA := arch.New(c.spec, s, seg, "A", wire.MAC{1}, ipA, nil, nil, nil)
			sysB := arch.New(c.spec, s, seg, "B", wire.MAC{2}, ipB, nil, nil, nil)
			return &apitest.Env{Sim: s, NewA: sysA.NewApp, NewB: sysB.NewApp, IPA: ipA, IPB: ipB}
		}})
	}
	apitest.Run(t, cols)
}
