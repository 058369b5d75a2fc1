package bench

import (
	"testing"
)

// metricsEnabledExtraBudget bounds what turning the registry on may add
// to the TCP hot path, in allocations per transmitted segment. The
// counters themselves are plain embedded integers (they always count);
// enabling metrics only adds the registry build at world construction
// and three histogram observes per measured event, none of which
// allocate per segment — the whole fixed cost must amortize under two
// allocations per segment even on a modest 2 MB transfer.
const metricsEnabledExtraBudget = 2.0

// TestMetricsOverhead measures the same tcp-steady workload on a world
// built without a registry and on one built with. Off must stay inside
// the PR 3 allocation budget (metrics are embedded counters, not a
// parallel accounting layer); on may add at most
// metricsEnabledExtraBudget allocations per segment.
func TestMetricsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting run skipped in -short")
	}
	cfg := HeadlineConfig() // Library-SHM-IPF
	off := streamAllocsPerSegment(t, cfg, false)
	on := streamAllocsPerSegment(t, cfg, true)

	t.Logf("tcp-steady allocs/segment: metrics off %.2f, on %.2f (off budget %.0f, extra budget %.1f)",
		off, on, allocsPerSegmentBudget, metricsEnabledExtraBudget)
	if off > allocsPerSegmentBudget {
		t.Errorf("metrics-off hot path allocates %.2f objects/segment; budget is %.0f", off, allocsPerSegmentBudget)
	}
	if extra := on - off; extra > metricsEnabledExtraBudget {
		t.Errorf("enabling metrics adds %.2f allocs/segment; budget is %.1f", extra, metricsEnabledExtraBudget)
	}
}

// TestRunMetricsSuite checks the psdbench registry digest: quantiles
// populated on the latency workload, retransmissions observed on the
// lossy stream, and full determinism of the digest rows.
func TestRunMetricsSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("metrics suite run skipped in -short")
	}
	cfg := DECConfigs()[5]
	rows, err := RunMetricsSuite(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("suite produced %d rows, want 3", len(rows))
	}
	byName := map[string]WorkloadMetrics{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	for _, name := range []string{"tcp-stream", "tcp-latency", "tcp-stream-lossy"} {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("missing workload %q", name)
		}
		if r.ConnectP50Ns <= 0 || r.ConnectP99Ns < r.ConnectP50Ns {
			t.Errorf("%s: bad connect quantiles p50=%d p99=%d", name, r.ConnectP50Ns, r.ConnectP99Ns)
		}
	}
	if byName["tcp-stream"].Rexmits != 0 || byName["tcp-stream"].Drops != 0 {
		t.Errorf("clean stream shows drops=%d rexmits=%d, want 0/0",
			byName["tcp-stream"].Drops, byName["tcp-stream"].Rexmits)
	}
	if byName["tcp-stream-lossy"].Drops == 0 {
		t.Error("lossy stream shows zero wire drops")
	}
	if byName["tcp-stream-lossy"].Rexmits == 0 {
		t.Error("lossy stream shows zero retransmissions")
	}

	again, err := RunMetricsSuite(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != again[i] {
			t.Errorf("suite row %d differs across identical runs:\n%+v\n%+v", i, rows[i], again[i])
		}
	}
}
