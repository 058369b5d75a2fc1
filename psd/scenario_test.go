package psd

import (
	"encoding/json"
	"testing"
)

// TestScenarioSuite is the CI gate: every named scenario meets its bounds
// on all four columns. A failure prints every bound's verdict so the
// offending one is visible without re-running.
func TestScenarioSuite(t *testing.T) {
	for _, name := range ScenarioNames() {
		for _, a := range ArchFlavors() {
			t.Run(name+"/"+a.Name, func(t *testing.T) {
				res, err := RunScenario(ScenarioConfig{
					Name: name, Seed: 1, Arch: a,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Requests == 0 {
					t.Fatal("scenario completed zero requests")
				}
				if !res.Passed {
					for _, r := range res.SLO {
						t.Log(r.String())
					}
					t.Fatalf("%s/%s failed its SLOs (req=%d err=%d p99=%dns)",
						name, a.Name, res.Requests, res.Errors, res.ReqP99Ns)
				}
			})
		}
	}
}

// TestScenarioDeterminism runs one scenario per architecture twice with
// the same seed and requires byte-identical JSON verdicts: quantiles,
// drop counts, SLO details, virtual time — everything.
func TestScenarioDeterminism(t *testing.T) {
	for _, a := range ArchFlavors() {
		t.Run(a.Name, func(t *testing.T) {
			cfg := ScenarioConfig{Name: "heavy-tail", Seed: 7, Arch: a}
			run := func() []byte {
				res, err := RunScenario(cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			first, second := run(), run()
			if string(first) != string(second) {
				t.Fatalf("verdict not byte-stable:\n%s\n%s", first, second)
			}
		})
	}
}

// TestScenarioSeedSensitivity checks the seed actually reaches the
// traffic generators: different seeds must produce different latency
// profiles (same structure, different draws).
func TestScenarioSeedSensitivity(t *testing.T) {
	r1, err := RunScenario(ScenarioConfig{Name: "heavy-tail", Seed: 1, Arch: ArchFlavors()[1]})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunScenario(ScenarioConfig{Name: "heavy-tail", Seed: 2, Arch: ArchFlavors()[1]})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ReqP50Ns == r2.ReqP50Ns && r1.ReqP99Ns == r2.ReqP99Ns && r1.SimNs == r2.SimNs {
		t.Fatal("seeds 1 and 2 produced identical profiles; seed is not plumbed through")
	}
}

// TestScenarioUnknownName rejects typos instead of silently passing.
func TestScenarioUnknownName(t *testing.T) {
	if _, err := RunScenario(ScenarioConfig{Name: "no-such", Arch: ArchFlavors()[1]}); err == nil {
		t.Fatal("want error for unknown scenario")
	}
}

// TestScenarioPartitionEvidence digs into the partition scenario's
// verdict: the fault plan must have produced observable drops and TCP
// must have retransmitted through the outage on every architecture.
func TestScenarioPartitionEvidence(t *testing.T) {
	for _, a := range ArchFlavors() {
		res, err := RunScenario(ScenarioConfig{Name: "partition", Seed: 1, Arch: a})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed {
			t.Fatalf("%s: partition scenario failed", a.Name)
		}
		if res.NetDrops == 0 {
			t.Errorf("%s: link cut produced no drops", a.Name)
		}
		if res.TCPRexmits == 0 {
			t.Errorf("%s: no retransmissions through the outage", a.Name)
		}
	}
}
