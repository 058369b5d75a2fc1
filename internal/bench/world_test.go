package bench

import (
	"reflect"
	"testing"
)

// TestBuildNeedsAreLocal: what one build call asks for stays with the
// world it returns. A world built with a registry leaves neither the
// next world nor the process default with one, and the suites that read
// a registry return the same rows whether or not EnableMetrics() was
// called first.
func TestBuildNeedsAreLocal(t *testing.T) {
	cfg := HeadlineConfig()
	if w := streamWorld(cfg, true); w.Reg == nil {
		t.Fatal("a build that asked for a registry got none")
	}
	if w := streamWorld(cfg, false); w.Reg != nil {
		t.Error("a build that asked for no registry got the previous build's")
	}
	if metricsCfg.enabled {
		t.Fatal("building a world with a registry switched the process default on")
	}

	const total = 256 << 10
	steady, err := RunOffloadSteady(OffloadConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	proxy := RunProxy(cfg, "chain", total)

	EnableMetrics()
	defer DisableMetrics()
	steadyOn, err := RunOffloadSteady(OffloadConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	proxyOn := RunProxy(cfg, "chain", total)
	if !metricsCfg.enabled {
		t.Error("a suite switched the process default off")
	}
	if !reflect.DeepEqual(steady, steadyOn) {
		t.Errorf("tcp-steady cell depends on the process default:\n  off %+v\n  on  %+v", steady, steadyOn)
	}
	if proxy.Err != nil || proxy != proxyOn {
		t.Errorf("proxy cell depends on the process default:\n  off %+v\n  on  %+v", proxy, proxyOn)
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
		{"stream", 42, func() *World { return streamWorld(cfg, false) },
			func(w *World) any { return runStreamOn(w, "ttcp", cfg.RcvBufKB, total, 0) },
			func() any { return RunTTCP(cfg, cfg.RcvBufKB, total) }},
		{"protolat", 7, func() *World { return latWorld(cfg, false) },
			func(w *World) any { return runProtolatOn(w, true, 100, 20, nil) },
			func() any { return RunProtolat(cfg, false, 100, 20) }},
		{"proxy", 43, func() *World { return proxyWorld(cfg) },
			func(w *World) any { return runProxyOn(w, "splice", total) },
			func() any { return RunProxy(cfg, "splice", total) }},
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
