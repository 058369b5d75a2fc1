package main

import "testing"

// TestScalePointEveryColumn: -scale-arch lists every architecture
// column, so a small scale point passes the city's audit on the
// baselines too — their stacks open every planned connection even
// though no OS server counts it.
func TestScalePointEveryColumn(t *testing.T) {
	for _, arch := range []string{"inkernel", "server"} {
		p, err := runScalePoint(1, arch, 100, 0)
		if err != nil {
			t.Errorf("%s: %v", arch, err)
			continue
		}
		if p.Hosts != 100 || p.Conns != 90 {
			t.Errorf("%s: %d hosts, %d conns; want 100 and 90", arch, p.Hosts, p.Conns)
		}
	}
}
