package core_test

import (
	"testing"

	"repro/internal/apitest"
	"repro/internal/core"
	"repro/internal/costs"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/socketapi"
	"repro/internal/wire"
)

func build(t *testing.T, seed int64) *apitest.Env {
	s := sim.New(seed)
	seg := simnet.NewSegment(s)
	ipA, ipB := wire.IP(10, 0, 0, 1), wire.IP(10, 0, 0, 2)
	sysA := core.New(kern.NewHost(s, seg, "A", wire.MAC{1}, ipA, costs.DECLibrarySHMIPF()), costs.DECServerUX())
	sysB := core.New(kern.NewHost(s, seg, "B", wire.MAC{2}, ipB, costs.DECLibrarySHMIPF()), costs.DECServerUX())
	return &apitest.Env{
		Sim:  s,
		NewA: func(name string) socketapi.API { return sysA.NewLibrary(name) },
		NewB: func(name string) socketapi.API { return sysB.NewLibrary(name) },
		IPA:  ipA,
		IPB:  ipB,
	}
}

func TestConformance(t *testing.T) {
	apitest.RunAll(t, build)
}

// buildOffload is the fourth receive architecture: the library profile
// with the simulated NIC offload engine (TSO/LRO/checksum/moderation)
// attached. The whole socket and chain conformance suite must behave
// identically behind the engine.
func buildOffload(t *testing.T, seed int64) *apitest.Env {
	s := sim.New(seed)
	seg := simnet.NewSegment(s)
	ipA, ipB := wire.IP(10, 0, 0, 1), wire.IP(10, 0, 0, 2)
	prof := costs.DECLibrarySHMIPFOffload()
	sysA := core.New(kern.NewHost(s, seg, "A", wire.MAC{1}, ipA, prof), costs.DECServerUX())
	sysB := core.New(kern.NewHost(s, seg, "B", wire.MAC{2}, ipB, prof), costs.DECServerUX())
	return &apitest.Env{
		Sim:  s,
		NewA: func(name string) socketapi.API { return sysA.NewLibrary(name) },
		NewB: func(name string) socketapi.API { return sysB.NewLibrary(name) },
		IPA:  ipA,
		IPB:  ipB,
	}
}

func TestConformanceOffload(t *testing.T) {
	apitest.RunAll(t, buildOffload)
}
