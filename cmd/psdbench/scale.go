package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"time"

	"repro/psd"
)

// ScalePoint is one measured (workload size, scheduler shape) cell of
// the scale suite. Its headline number is sim_per_real, virtual seconds
// simulated per wall-clock second.
type ScalePoint struct {
	Arch         string  `json:"arch,omitempty"`
	Hosts        int     `json:"hosts"`
	Districts    int     `json:"districts"`
	Conns        int     `json:"conns"`
	Shards       int     `json:"shards"` // 0 = classic single loop
	VirtSeconds  float64 `json:"virt_seconds"`
	RealSeconds  float64 `json:"real_seconds"`
	SimPerReal   float64 `json:"sim_per_real"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Windows      uint64  `json:"windows,omitempty"`
	// AllocsPerWindow is heap allocations per synchronization window
	// (sharded cells only) — the window-loop efficiency gauge. Cells run
	// in fresh child processes, so the malloc counter sees one run.
	AllocsPerWindow float64 `json:"allocs_per_window,omitempty"`
}

// scale measures the simulator's own scheduler: the RunCity workload at
// growing host counts, on the classic single event loop (shards=0, the
// baseline) and on shard groups, each cell in a child process, `scale
// -scale-point <hosts>/<shards>`, so that its malloc count sees its own
// run and no other. It emits each point as it is measured, and fails if
// a conservation law fails or if no multi-shard run at the largest host
// count beats the baseline on sim_per_real.
func scale(o *opts, emit func(any)) (any, error) {
	if o.scalePoint != "" { // the child: measure the one cell
		var hosts, shards int
		if _, err := fmt.Sscanf(o.scalePoint, "%d/%d", &hosts, &shards); err != nil {
			return nil, fmt.Errorf("scale-point: %w", err)
		}
		p, err := runScalePoint(o.seed, o.scaleArch, hosts, shards)
		if err != nil {
			return nil, err
		}
		return []ScalePoint{p}, nil
	}
	shardCounts := []int{0, 1, 4, 8}
	if o.shards == 0 {
		shardCounts = []int{0}
	} else if o.shards > 0 {
		shardCounts = []int{0, o.shards}
	}
	hosts := slices.DeleteFunc([]int{2500, 10000, 40000, 100000}, func(h int) bool { return h > o.scaleHosts })
	if len(hosts) == 0 {
		hosts = []int{o.scaleHosts}
	}

	var baseline, bestMulti float64
	for _, h := range hosts {
		for _, k := range shardCounts {
			p, err := spawnScalePoint(o, h, k)
			if h == hosts[len(hosts)-1] && err == nil {
				// The largest host count is the gating row: measure it
				// twice and keep the faster run, so single-run timing
				// noise cannot flip the speedup verdict. The simulation
				// itself is deterministic — only wall time varies.
				var p2 ScalePoint
				if p2, err = spawnScalePoint(o, h, k); p2.SimPerReal > p.SimPerReal {
					p = p2
				}
				if k == 0 {
					baseline = p.SimPerReal
				} else {
					bestMulti = max(bestMulti, p.SimPerReal)
				}
			}
			if err != nil {
				return nil, err
			}
			emit([]ScalePoint{p})
		}
	}
	if baseline == 0 || bestMulti == 0 {
		return nil, nil
	}
	if bestMulti <= baseline {
		return nil, fmt.Errorf("scale: no multi-shard run beat the single-loop baseline (%.1f vs %.1f sim/real)",
			bestMulti, baseline)
	}
	return fmt.Sprintf("multi-shard best %.1f sim/real vs single-loop %.1f (%+.0f%%)",
		bestMulti, baseline, 100*(bestMulti/baseline-1)), nil
}

// spawnScalePoint measures one cell in a fresh child process, which
// writes it as a one-row report to its stdout.
func spawnScalePoint(o *opts, hosts, shards int) (ScalePoint, error) {
	exe, err := os.Executable()
	if err != nil {
		return ScalePoint{}, err
	}
	cmd := exec.Command(exe, "scale", "-seed", fmt.Sprint(o.seed), "-scale-arch", o.scaleArch,
		"-scale-point", fmt.Sprintf("%d/%d", hosts, shards), "-json", "-")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var runs [1]report[ScalePoint] // of one row: the child exits non-zero when it measures none
	if err == nil {
		err = json.Unmarshal(out, &runs)
	}
	if err != nil {
		return ScalePoint{}, fmt.Errorf("scale: hosts=%d shards=%d: %w", hosts, shards, err)
	}
	return runs[0].Results[0], nil
}

// runScalePoint runs the city of one cell — 100 hosts per district (10
// echo servers, 90 clients), one connection per client, a quarter of
// them crossing districts over the trunks — and folds the run into a
// point.
func runScalePoint(seed int64, archName string, hosts, shards int) (ScalePoint, error) {
	f, err := psd.FlavorByName(archName)
	if err != nil {
		return ScalePoint{}, fmt.Errorf("scale: %w", err)
	}
	cfg := psd.CityConfig{
		Seed:               seed,
		Districts:          max(hosts/100, 1),
		ServersPerDistrict: 10,
		ClientsPerDistrict: 90,
		ConnsPerClient:     1,
		CrossEvery:         4,
		OrphanEvery:        16,
		MsgBytes:           256,
		Arch:               f.New(),
		Shards:             shards,
		TrunkProp:          time.Millisecond,
	}
	var ms [2]runtime.MemStats
	runtime.ReadMemStats(&ms[0])
	start := time.Now()
	rep, err := psd.RunCity(cfg)
	real := time.Since(start)
	runtime.ReadMemStats(&ms[1])
	if err == nil {
		err = rep.Check()
	}
	if err != nil {
		return ScalePoint{}, fmt.Errorf("scale: hosts=%d shards=%d: %w", hosts, shards, err)
	}
	// Virtual time is identical across scheduler shapes for a given
	// workload (that is the determinism guarantee); real time is the
	// variable under test.
	virt := float64(rep.Snapshot.At) / float64(time.Second)
	p := ScalePoint{
		Arch:         archName,
		Hosts:        rep.Hosts,
		Districts:    rep.Districts,
		Conns:        rep.ConnsPlan,
		Shards:       shards,
		VirtSeconds:  virt,
		RealSeconds:  real.Seconds(),
		SimPerReal:   virt / real.Seconds(),
		Events:       rep.DispatchedTotal,
		EventsPerSec: float64(rep.DispatchedTotal) / real.Seconds(),
		Windows:      rep.Windows,
	}
	if rep.Windows > 0 {
		p.AllocsPerWindow = float64(ms[1].Mallocs-ms[0].Mallocs) / float64(rep.Windows)
	}
	return p, nil
}
