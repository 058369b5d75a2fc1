package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/wire"
)

// The tests run every workload at -smoke size: seconds in total, no
// assertion on any host time.

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeSpec(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("BENCHMARK.json differs from the catalogue in spec.go; regenerate it with `go run ./benchmark -spec > BENCHMARK.json`")
	}
}

func TestCatalogueNames(t *testing.T) {
	if len(workloads) != 7 {
		t.Errorf("%d workloads, want 7", len(workloads))
	}
	if len(issueEndToEnd) != 12 {
		t.Errorf("%d end-to-end metrics, want ISSUE 11's 12", len(issueEndToEnd))
	}
	if len(perLayer) != 107 {
		t.Errorf("%d per-layer metrics, want ISSUE 11's 106 plus paper_err_pct", len(perLayer))
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !wellFormed.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, wl := range workloads {
		check(wl.name)
		if workloadWhy[wl.name] == "" || len(workloadWhy[wl.name]) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", wl.name)
		}
		if !slices.Contains(wl.columns, colCore) {
			t.Errorf("workload %s lacks the reference column", wl.name)
		}
	}
	for _, s := range endToEnd {
		check(s.name)
		if s.bound <= 0 || s.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.name, s.bound)
		}
	}
	for _, s := range perLayer {
		check(s.name)
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if s.unit == "" || (s.better != "lower" && s.better != "higher") {
			t.Errorf("%s: unit %q, better %q", s.name, s.unit, s.better)
		}
	}
}

// TestEveryMetricEmitted runs each workload untraced and traced and
// checks the result lines the driver reads: exactly the declared names,
// each with its unit and a finite value, end-to-end values never 0, and
// nothing failed at the default seed or the held-out one.
func TestEveryMetricEmitted(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			for _, seed := range []int64{1, 3} {
				res := measure(wl, seed, 1, true)
				if res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("seed %d: failed %d of %d ops: %v", seed, res.Failed, res.Attempted, res.Errors)
				}
				line := contractLine(res, endToEnd)
				checkLine(t, line, endToEnd, true)
			}

			res, err := traceRun(wl, 1, 1, true, t.TempDir()+"/spans.json")
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("traced: failed %d of %d ops: %v", res.Failed, res.Attempted, res.Errors)
			}
			checkLine(t, contractLine(res, perLayer), perLayer, false)

			// What each workload was chosen for must show in its layers.
			v := func(name string) float64 { return res.Metrics[name].Value }
			if got := v("dataplane.rx_frames_per_op"); (got > 0) != (wl.name == "vipchain") {
				t.Errorf("dataplane.rx_frames_per_op = %v", got)
			}
			if got := v("stack.rexmit_share"); wl.name == "bulk" && got != 0 {
				t.Errorf("stack.rexmit_share = %v on a clean wire", got)
			}
			if got := v("fault.injected_per_kframe"); (got > 0) != (wl.name == "bulk-lossy") {
				t.Errorf("fault.injected_per_kframe = %v", got)
			}
			if wl.name == "proxy" && v("stack.copied_bytes_per_byte") != 0 {
				t.Errorf("splice copied %v bytes per byte on the proxy host", v("stack.copied_bytes_per_byte"))
			}
			if wl.name == "manyflows" && v("filter.installed_peak") < 12 {
				t.Errorf("filter.installed_peak = %v, want one filter per session", v("filter.installed_peak"))
			}
			if wl.name == "city" && (v("router.fwd_per_op") == 0 || v("sim.events_per_window") == 0) {
				t.Errorf("city reached neither routers nor the shard group")
			}
		})
	}
}

func checkLine(t *testing.T, line contractResult, specs []metricSpec, nonZero bool) {
	t.Helper()
	if len(line.Metrics) != len(specs) {
		t.Errorf("%d metrics emitted, %d declared", len(line.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := line.Metrics[s.name]
		switch {
		case !ok:
			t.Errorf("%s not emitted", s.name)
		case m.Unit != s.unit:
			t.Errorf("%s: unit %q, declared %q", s.name, m.Unit, s.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v", s.name, m.Value)
		case nonZero && m.Value == 0:
			t.Errorf("%s = 0; end-to-end metrics are never 0", s.name)
		}
	}
}

// TestRepsRepeat: the same seed replays the same simulation, another
// seed another one.
func TestRepsRepeat(t *testing.T) {
	wl := findWorkload("manyflows")
	a, b, c := measure(wl, 1, 1, true), measure(wl, 1, 1, true), measure(wl, 2, 1, true)
	if a.Digest != b.Digest {
		t.Errorf("two runs at seed 1 differ: %s, %s", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds 1 and 2 gave the same simulation")
	}
}

// TestSinkCatchesCorruption: a stream that arrives whole but wrong
// counts every op as failed instead of aborting.
func TestSinkCatchesCorruption(t *testing.T) {
	st := newStream(newInputs(1, "test"), 64<<10, time.Millisecond, time.Millisecond)
	st.want++
	cfg := benchConfig(colCore)
	c := colRun{ops: st.total >> 10}
	streamTransfer(buildWorld(cfg, 1, nil, false), cfg, &c, &st)
	if c.failed != c.ops || len(c.errs) == 0 {
		t.Errorf("failed %d of %d ops, errors %v", c.failed, c.ops, c.errs)
	}
}

func TestFilterProbeOracle(t *testing.T) {
	for _, n := range []int{1, 16, 1024} {
		p := newFilterProbe(n)
		if !p.spec.Matches(p.frame) {
			t.Fatalf("s%d: the probe's frame does not belong to its session", n)
		}
		m := p.match()
		if m == nil || m.Spec != p.spec || m.Owner != n-1 {
			t.Fatalf("s%d: matched %+v, want the session installed last", n, m)
		}
		// The walk visits every session filter and stops before the
		// catch-all.
		if p.set.Steps != n || p.set.Runs != 1 {
			t.Errorf("s%d: %d steps in %d runs, want %d in 1", n, p.set.Steps, p.set.Runs, n)
		}
		before := p.set.Len()
		p.installRemove()
		if p.set.Len() != before {
			t.Errorf("s%d: install/remove left %d filters, had %d", n, p.set.Len(), before)
		}
	}
}

func TestChecksumProbeOracle(t *testing.T) {
	b := newInputs(1, "test").payload(8 << 10)
	if got, want := probeChecksum(b), wire.Checksum(b); got != want {
		t.Errorf("probe checksum %04x, wire.Checksum %04x", got, want)
	}
}

func TestPlaneProbeOracle(t *testing.T) {
	for _, rules := range []int{0, 128} {
		p := newPlaneProbe(rules)
		if p.plane.Chain.Len() != rules {
			t.Fatalf("r%d: chain has %d rules", rules, p.plane.Chain.Len())
		}
		if v, matched := p.plane.Chain.Eval(p.data); matched || v != filter.VerdictPass {
			t.Fatalf("r%d: a never-matching rule matched", rules)
		}
		in := append([]byte(nil), p.data...)
		if v := p.ingress(); v != filter.VerdictAbsorb {
			t.Fatalf("r%d: verdict %v, want the frame hairpinned to the backend", rules, v)
		}
		if !bytes.Equal(in, p.data) {
			t.Errorf("r%d: the plane wrote to the frame it was handed", rules)
		}
		if len(p.out) != 1 {
			t.Fatalf("r%d: %d frames transmitted", rules, len(p.out))
		}
		ip, tcp := probeParse(p.out[0])
		if ip.Dst != probeBackend || tcp.DstPort != 8080 {
			t.Errorf("r%d: forwarded to %v:%d, want the backend", rules, ip.Dst, tcp.DstPort)
		}
		seg := p.out[0][wire.EthHeaderLen+wire.IPv4HeaderLen:]
		if !wire.VerifyTCPChecksum(ip.Src, ip.Dst, seg) {
			t.Errorf("r%d: rewritten frame has a bad TCP checksum", rules)
		}
	}
}

func TestPaperTable(t *testing.T) {
	for _, col := range []string{colInkernel, colUxserver, colCore} {
		c, ok := paperTable2[col]
		if !ok || c.throughputKBps <= 0 || c.tcpLat1BMs <= 0 || c.udpLat1BMs <= 0 {
			t.Errorf("paper Table 2 has no complete cell for %s: %+v", col, c)
		}
	}
	if len(paperTable2) != 3 {
		t.Errorf("%d paper columns, want 3", len(paperTable2))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles %v %v %v", q1, median(v), q3)
	}
}

func TestCitySeedsSkipKnownBad(t *testing.T) {
	bad := map[int64]bool{}
	for _, in := range knownBadCity {
		if in.districts == 12 {
			bad[in.seed] = true
		}
	}
	for s := int64(-3); s < 100; s++ {
		if bad[citySeed(s)] {
			t.Errorf("-seed %d draws known-bad simulator seed %d", s, citySeed(s))
		}
	}
	if citySeed(1) != 1 || citySeed(3) != 3 {
		t.Errorf("seeds 1 and 3 must map to themselves")
	}
}

func TestCompare(t *testing.T) {
	set := func(seed int64, wall, q1, q3, goodput float64, digest string) *resultSet {
		return &resultSet{Results: []*runResult{{
			Workload: "bulk", Seed: seed, Digest: digest, Attempted: 1,
			Metrics: map[string]metricValue{
				"wall_us_per_op":    {Value: wall, Unit: "us", Q1: q1, Q3: q3, N: 11},
				"virt_goodput_kbps": {Value: goodput, Unit: "virt_KB/s"},
				"failed_share":      {Value: 0, Unit: "share"},
			},
		}}}
	}
	base := set(1, 10, 9.9, 10.1, 990, "aa")
	cases := []struct {
		name                             string
		b                                *resultSet
		regressed, unresolved, identical bool
	}{
		{"same", set(1, 10.2, 10.1, 10.3, 990, "aa"), false, false, true},
		{"slower", set(1, 11.5, 11.4, 11.6, 990, "aa"), true, false, true},
		{"noisy", set(1, 11.5, 10, 13, 990, "aa"), false, true, true},
		{"virtual moved", set(1, 10, 9.9, 10.1, 985, "bb"), true, false, false},
		{"other seed within the driver bound", set(2, 10, 9.9, 10.1, 985, "bb"), false, false, true},
	}
	for _, c := range cases {
		var out strings.Builder
		regressed, unresolved, identical := compare(&out, base, c.b)
		if regressed != c.regressed || unresolved != c.unresolved || identical != c.identical {
			t.Errorf("%s: regressed %v unresolved %v identical %v\n%s", c.name, regressed, unresolved, identical, out.String())
		}
	}
}
