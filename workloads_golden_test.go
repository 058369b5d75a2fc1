package repro_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/workloads.golden from this run")

// goldenSeeds are the benchmark's tuning seed and its held-out seed.
var goldenSeeds = []int64{1, 3}

// virtualUnits are the units of the virtual-clock metrics: what a
// workload computes in simulated time or counts in simulated state, as
// opposed to what the host spent (ns, us, s, B, MiB, allocation counts).
var virtualUnits = map[string]bool{
	"virt_us": true, "virt_KB/s": true, "share": true, "ratio": true, "1/virt_s": true, "KiB": true,
}

const goldenHeader = `# The seven benchmark workloads' virtual results at smoke size:
#   go run ./benchmark -smoke -traced -out <file> -seed <1|3>
# One line per run (workload, seed, traced or not) with its reps, failed
# ops and rep digest, then one line per virtual-clock metric (units
# virt_us, virt_KB/s, share, ratio, 1/virt_s, KiB, and paper_err_pct).
# The smoke city and rpc lines hold one world for every seed: smoke city
# is three districts, whose schedule does not depend on the seed (psd's
# city reference digests pin the seed-dependent ones), and rpc is a
# 1-byte ping-pong on an idle segment. Regenerate with
#   go test -run TestWorkloadsGolden -update .
`

// TestWorkloadsGolden runs the unmodified benchmark at smoke size at
// both seeds and compares every rep digest and every virtual-clock
// metric with testdata/workloads.golden, so "bit-identical" is a test
// rather than a hand-run -compare. A change that moves the file names
// the cause in EXPERIMENTS.md.
func TestWorkloadsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark twice (about 8 s)")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, "./benchmark").CombinedOutput(); err != nil {
		t.Fatalf("go build ./benchmark: %v\n%s", err, out)
	}
	var lines []string
	for _, seed := range goldenSeeds {
		res := filepath.Join(dir, fmt.Sprintf("seed%d.json", seed))
		cmd := exec.Command(bin, "-smoke", "-traced", "-seed", strconv.FormatInt(seed, 10), "-out", res)
		cmd.Dir = dir // span files and child results stay in the temporary directory
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("benchmark -seed %d: %v\n%s", seed, err, out)
		}
		l, err := goldenLines(res)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, l...)
	}
	slices.Sort(lines)
	got := goldenHeader + strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "workloads.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := goldenValues(string(b))
	have := goldenValues(got)
	for _, k := range slices.Sorted(maps.Keys(mapKeys(want, have))) {
		if want[k] != have[k] {
			t.Errorf("%s: %s -> %s", k, orNone(want[k]), orNone(have[k]))
		}
	}
}

// goldenLines reduces one -out file to golden lines.
func goldenLines(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs struct {
		Results []struct {
			Workload string `json:"workload"`
			Seed     int64  `json:"seed"`
			Traced   bool   `json:"traced"`
			Reps     int    `json:"reps"`
			Failed   int    `json:"failed"`
			Digest   string `json:"digest"`
			Metrics  map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		} `json:"results"`
	}
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var lines []string
	for _, r := range rs.Results {
		run := fmt.Sprintf("%s seed=%d traced=%t", r.Workload, r.Seed, r.Traced)
		lines = append(lines, fmt.Sprintf("%s reps %d failed %d digest %s", run, r.Reps, r.Failed, r.Digest))
		for name, m := range r.Metrics {
			if virtualUnits[m.Unit] || name == "paper_err_pct" {
				lines = append(lines, fmt.Sprintf("%s %s %s %s", run, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit))
			}
		}
	}
	return lines, nil
}

// goldenValues maps each line's key (run and metric name, or run for the
// reps/failed/digest line) to the rest of it.
func goldenValues(s string) map[string]string {
	m := map[string]string{}
	for _, l := range strings.Split(s, "\n") {
		f := strings.Fields(l)
		if len(f) < 4 || strings.HasPrefix(l, "#") {
			continue
		}
		run := strings.Join(f[:3], " ")
		if f[3] == "reps" {
			m[run] = strings.Join(f[3:], " ")
		} else {
			m[run+" "+f[3]] = strings.Join(f[4:], " ")
		}
	}
	return m
}

func mapKeys(ms ...map[string]string) map[string]bool {
	keys := map[string]bool{}
	for _, m := range ms {
		for k := range m {
			keys[k] = true
		}
	}
	return keys
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}
