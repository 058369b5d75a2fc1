package uxserver_test

import (
	"testing"

	"repro/internal/apitest"
	"repro/internal/costs"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/socketapi"
	"repro/internal/uxserver"
	"repro/internal/wire"
)

func build(t *testing.T, seed int64) *apitest.Env {
	s := sim.New(seed)
	seg := simnet.NewSegment(s)
	ipA, ipB := wire.IP(10, 0, 0, 1), wire.IP(10, 0, 0, 2)
	sysA := uxserver.New(s, seg, "A", wire.MAC{1}, ipA, costs.DECServerUX())
	sysB := uxserver.New(s, seg, "B", wire.MAC{2}, ipB, costs.DECServerUX())
	return &apitest.Env{
		Sim:  s,
		NewA: func(name string) socketapi.API { return sysA.NewApp(name) },
		NewB: func(name string) socketapi.API { return sysB.NewApp(name) },
		IPA:  ipA,
		IPB:  ipB,
	}
}

func TestConformance(t *testing.T) {
	apitest.RunAll(t, build)
}
