package slo

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func testRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	a := reg.Scope("host.a.stack")
	b := reg.Scope("host.b.stack")
	ha := a.Histogram("rtt_ns")
	hb := b.Histogram("rtt_ns")
	for i := 0; i < 99; i++ {
		ha.Observe(int64(time.Millisecond))
		hb.Observe(int64(2 * time.Millisecond))
	}
	ha.Observe(int64(80 * time.Millisecond)) // tail outlier

	sent := a.NewCounter("frames_sent")
	sent.Add(1000)
	drops := a.NewCounter("drops")
	drops.Add(5)
	a.GaugeFunc("tcp_state.time_wait", func() int64 { return 0 })
	return reg
}

func TestQuantileAtMost(t *testing.T) {
	reg := testRegistry()
	ctx := NewContext(reg, time.Second)

	// p50 across both hosts is ~1-2ms; generous bound passes.
	if ok, d := QuantileAtMost("p50-rtt", ".rtt_ns", 0.50, 10*time.Millisecond).Eval(ctx); !ok {
		t.Fatalf("p50 should pass: %s", d)
	}
	// p999 catches the 80ms outlier against a 10ms bound.
	if ok, d := QuantileAtMost("p999-rtt", ".rtt_ns", 0.999, 10*time.Millisecond).Eval(ctx); ok {
		t.Fatalf("p999 should fail on the outlier: %s", d)
	}
	// An SLO over a metric with no samples is a failure, not a pass.
	if ok, _ := QuantileAtMost("idle", ".connect_ns", 0.99, time.Second).Eval(ctx); ok {
		t.Fatal("quantile over empty histogram should fail")
	}
}

func TestSumsAndRatios(t *testing.T) {
	reg := testRegistry()
	ctx := NewContext(reg, time.Second)

	cases := []struct {
		c    Check
		want bool
	}{
		{SumAtMost("drops-bounded", ".drops", 10), true},
		{SumAtMost("drops-tight", ".drops", 4), false},
		{SumAtLeast("did-work", ".frames_sent", 1000), true},
		{SumAtLeast("did-more-work", ".frames_sent", 1001), false},
		{SumZero("no-time-wait", ".tcp_state.time_wait"), true},
		{RatioAtMost("drop-ratio", ".drops", ".frames_sent", 0.01), true},
		{RatioAtMost("drop-ratio-tight", ".drops", ".frames_sent", 0.001), false},
		{RatioAtMost("zero-den", ".drops", ".no_such", 0.5), false},
	}
	for _, tc := range cases {
		ok, detail := tc.c.Eval(ctx)
		if ok != tc.want {
			t.Errorf("%s: got %v (%s), want %v", tc.c.Name, ok, detail, tc.want)
		}
	}
}

func TestSuiteEvalAndReport(t *testing.T) {
	reg := testRegistry()
	ctx := NewContext(reg, time.Second)

	var s Suite
	s.Add(SumAtLeast("did-work", ".frames_sent", 1)).
		Add(SumAtMost("drops-tight", ".drops", 0)).
		Add(Expr("custom", func(c *Context) (bool, string) { return true, "always" }))

	rs := s.Eval(ctx)
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	if Passed(rs) {
		t.Fatal("suite should fail on drops-tight")
	}
	f := Failures(rs)
	if len(f) != 1 || f[0].Name != "drops-tight" {
		t.Fatalf("failures = %v", f)
	}
	rep := Report(rs)
	if !strings.Contains(rep, "PASS did-work") || !strings.Contains(rep, "FAIL drops-tight") {
		t.Fatalf("report:\n%s", rep)
	}
	// Byte-stable across identical evaluations.
	if rep != Report(s.Eval(NewContext(reg, time.Second))) {
		t.Fatal("report not deterministic")
	}
}
