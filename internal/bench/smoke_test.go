package bench

import "testing"

func TestSmokeTTCP(t *testing.T) {
	for _, cfg := range DECConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			r := RunTTCP(nil, cfg, cfg.RcvBufKB, 2<<20) // 2 MB for the smoke test
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			t.Logf("%s: %.0f KB/s", cfg.Name, r.KBps())
		})
	}
}

func TestSmokeLatency(t *testing.T) {
	for _, cfg := range DECConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			u := RunProtolat(nil, cfg, true, 1, 50)
			if u.Err != nil {
				t.Fatal(u.Err)
			}
			tcp := RunProtolat(nil, cfg, false, 1, 50)
			if tcp.Err != nil {
				t.Fatal(tcp.Err)
			}
			t.Logf("%s: UDP 1B RTT %.2f ms, TCP 1B RTT %.2f ms", cfg.Name, u.Ms(), tcp.Ms())
		})
	}
}
