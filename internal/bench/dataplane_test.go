package bench

import "testing"

// TestDataplaneChainCost verifies the chain-length sweep measures what
// it claims: a 128-rule chain must cost measurably more than an empty
// one, in both throughput and round-trip latency, and the chain's
// instruction count must scale with the rule count.
func TestDataplaneChainCost(t *testing.T) {
	cfg := HeadlineConfig()

	t0, err := RunDataplaneTTCP(nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	t128, err := RunDataplaneTTCP(nil, cfg, 128)
	if err != nil {
		t.Fatal(err)
	}
	if t128.ChainInstrs <= t0.ChainInstrs || t128.ChainInstrs < 128 {
		t.Errorf("chain instrs: 0 rules -> %d, 128 rules -> %d", t0.ChainInstrs, t128.ChainInstrs)
	}
	if t128.KBps >= t0.KBps {
		t.Errorf("throughput did not degrade: 0 rules %.1f KB/s, 128 rules %.1f KB/s", t0.KBps, t128.KBps)
	}

	l0, err := RunDataplaneLat(nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	l128, err := RunDataplaneLat(nil, cfg, 128)
	if err != nil {
		t.Fatal(err)
	}
	if l128.LatencyMs <= l0.LatencyMs {
		t.Errorf("latency did not grow: 0 rules %.3f ms, 128 rules %.3f ms", l0.LatencyMs, l128.LatencyMs)
	}
}

// TestDataplaneChainDeterminism: the same cell measured twice returns
// identical numbers.
func TestDataplaneChainDeterminism(t *testing.T) {
	cfg := HeadlineConfig()
	a, err := RunDataplaneLat(nil, cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDataplaneLat(nil, cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two identical cells diverged: %+v vs %+v", a, b)
	}
}
