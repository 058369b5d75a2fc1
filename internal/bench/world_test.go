package bench

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// TestBuildNeedsAreLocal: what one build call asks for stays with the
// world it returns. A world built with a registry leaves the next world
// without one; worlds built in a faulted, traced environment leave the
// next clean world with no recorder, no registry and no faults, and the
// environment collects exactly those worlds; Build's defaults reach
// Build alone.
func TestBuildNeedsAreLocal(t *testing.T) {
	cfg := HeadlineConfig()
	if w := streamWorld(nil, cfg, true); w.Reg == nil {
		t.Fatal("a build that asked for a registry got none")
	}
	if w := streamWorld(nil, cfg, false); w.Reg != nil {
		t.Error("a build that asked for no registry got the previous build's")
	}

	env := &Env{Trace: true}
	if err := env.SetFaults("@0 rates drop=0.01; @1s partition A|B for=10ms"); err != nil {
		t.Fatal(err)
	}
	built := []*World{streamWorld(env, cfg, false), latWorld(env, cfg, true)}
	clean := streamWorld(nil, cfg, false)
	for i, w := range built {
		if w.Rec == nil || w.Seg.Faults().DefaultRates().Drop != 0.01 || env.injs[i] != w.Seg.Faults() {
			t.Errorf("world %d of the environment: recorder %v, rates %+v, collected %v",
				i, w.Rec != nil, w.Seg.Faults().DefaultRates(), env.injs[i] == w.Seg.Faults())
		}
	}
	if len(env.injs) != len(built) {
		t.Errorf("the environment collected %d worlds, want the %d built in it", len(env.injs), len(built))
	}
	if clean.Rec != nil || clean.Reg != nil || !clean.Seg.Faults().DefaultRates().IsZero() {
		t.Errorf("the next clean world: recorder %v, registry %v, rates %+v",
			clean.Rec != nil, clean.Reg != nil, clean.Seg.Faults().DefaultRates())
	}
	runStreamOn(clean, "ttcp", cfg.RcvBufKB, 64<<10, 0)
	if r := runStreamOn(built[0], "ttcp", cfg.RcvBufKB, 64<<10, 0); r.Err != nil || env.slowRec != built[0].Rec {
		t.Errorf("the environment's slowest run is not its one traced run (err %v)", r.Err)
	}

	EnableMetrics()
	EnableTrace(0, trace.LayerNet)
	exported, suite := cfg.Build(42), streamWorld(nil, cfg, false)
	DisableMetrics()
	DisableTrace()
	if exported.Reg == nil || exported.Rec == nil {
		t.Error("Build ignored EnableMetrics/EnableTrace")
	}
	if suite.Reg != nil || suite.Rec != nil {
		t.Error("EnableMetrics/EnableTrace reached a suite's world")
	}
	if w := cfg.Build(42); w.Reg != nil || w.Rec != nil {
		t.Error("DisableMetrics/DisableTrace left Build's defaults on")
	}
}

// TestHandedWorldMatchesWrapper: for one stream, one protolat and one
// proxy cell, building the world and handing it to the workload gives
// the exported wrapper's result in every field, and a world from the
// exported Build at the workload's seed — what benchmark/ builds —
// dispatches exactly the events the workload's own constructor does:
// nothing is scheduled between a build returning and the run starting.
func TestHandedWorldMatchesWrapper(t *testing.T) {
	cfg := HeadlineConfig()
	const total = 256 << 10
	cells := []struct {
		name    string
		seed    int64
		own     func() *World
		run     func(w *World) any
		wrapper func() any
	}{
		{"stream", 42, func() *World { return streamWorld(nil, cfg, false) },
			func(w *World) any { return runStreamOn(w, "ttcp", cfg.RcvBufKB, total, 0) },
			func() any { return RunTTCP(nil, cfg, cfg.RcvBufKB, total) }},
		{"protolat", 7, func() *World { return latWorld(nil, cfg, false) },
			func(w *World) any { return runProtolatOn(w, true, 100, 20, nil) },
			func() any { return RunProtolat(nil, cfg, false, 100, 20) }},
		{"proxy", 43, func() *World { return proxyWorld(nil, cfg) },
			func(w *World) any { return runProxyOn(w, "splice", total) },
			func() any { return RunProxy(nil, cfg, "splice", total) }},
	}
	for _, c := range cells {
		own := c.own()
		handed := c.run(own)
		if want := c.wrapper(); !reflect.DeepEqual(handed, want) {
			t.Errorf("%s: handed world returned %+v, wrapper %+v", c.name, handed, want)
		}
		exported := cfg.Build(c.seed)
		c.run(exported)
		if a, b := own.Sim.Dispatched(), exported.Sim.Dispatched(); a == 0 || a != b {
			t.Errorf("%s: %d events on the workload's own world, %d on Build(%d)'s", c.name, a, b, c.seed)
		}
	}
}
