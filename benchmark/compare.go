package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// resultSet is what a full run writes with -out and -compare reads.
type resultSet struct {
	Label   string       `json:"label,omitempty"`
	Go      string       `json:"go"`
	NumCPU  int          `json:"nproc"`
	Results []*runResult `json:"results"`
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

func writeResultSet(path string, rs *resultSet) error {
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (rs *resultSet) find(workload string, traced bool) *runResult {
	for _, r := range rs.Results {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

// compare prints every (metric, workload) delta of b against a with its
// bound, one row per workload, and reports whether b regressed.
//
// A metric is unresolved, not regressed or unchanged, when the reps'
// inter-quartile spread on either side is wider than the bound. With
// equal seeds the same-seed bounds of ISSUE 11 apply and the virtual
// results must repeat bit for bit; with different seeds the wider
// driver bounds of BENCHMARK.json apply.
func compare(w io.Writer, a, b *resultSet) (regressed, unresolved, identical bool) {
	identical = true
	for _, spec := range issueEndToEnd {
		absolute := spec.absolute
		scale, suffix := 100.0, "%"
		if absolute {
			scale, suffix = 1, " abs"
		}
		header := false
		for _, wl := range workloads {
			ra, rb := a.find(wl.name, false), b.find(wl.name, false)
			if ra == nil || rb == nil {
				continue
			}
			ma, oka := ra.Metrics[spec.name]
			mb, okb := rb.Metrics[spec.name]
			if !oka || !okb {
				continue
			}
			sameSeed := ra.Seed == rb.Seed
			bound := spec.bound
			if sameSeed || absolute {
				bound = spec.sameSeed
			}
			if !header {
				fmt.Fprintf(w, "%s (%s, %s is better, bound %.4g%s)\n", spec.name, spec.unit, spec.better, bound*scale, suffix)
				header = true
			}
			worse := mb.Value - ma.Value
			if spec.better == "higher" {
				worse = -worse
			}
			spread := 0.0
			if !absolute {
				worse = ratio(worse, math.Abs(ma.Value))
				spread = math.Max(iqrShare(ma), iqrShare(mb))
			}
			verdict := "ok"
			switch {
			case spread > bound && bound > 0:
				verdict = "UNRESOLVED (spread wider than bound)"
				unresolved = true
			case worse > bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "  %-11s %16.6g -> %-16.6g %+9.3f%-4s  spread %6.3f%%  %s\n",
				wl.name, ma.Value, mb.Value, worse*scale, suffix, spread*100, verdict)
		}
	}
	fmt.Fprintln(w, "virtual results and sim.events_per_op (rep digest)")
	for _, wl := range workloads {
		ra, rb := a.find(wl.name, false), b.find(wl.name, false)
		if ra == nil || rb == nil || ra.Seed != rb.Seed {
			continue
		}
		verdict := "bit-identical"
		if ra.Digest != rb.Digest {
			verdict = "DIFFER"
			identical = false
		}
		fmt.Fprintf(w, "  %-11s %s %s  %s\n", wl.name, ra.Digest, rb.Digest, verdict)
	}
	return regressed, unresolved, identical
}

// iqrShare is the reps' inter-quartile spread as a share of the median.
func iqrShare(m metricValue) float64 {
	if m.N < 2 || m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Value)
}
