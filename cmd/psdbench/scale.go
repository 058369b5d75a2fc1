package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	"repro/psd"
)

// The scale suite measures the simulator's own scheduler at internet
// scale: the RunCity districted workload at growing host counts, run on
// the classic single event loop (shards=0, the baseline) and on shard
// groups of increasing width. Every point must pass the conservation
// laws; the headline number is sim_per_real — virtual seconds simulated
// per wall-clock second — whose trajectory across host counts is what
// BENCH_scale.json records.

// ScalePoint is one measured (workload size, scheduler shape) cell.
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

// scaleCity sizes a city to roughly the requested host count: 100
// hosts per district (10 echo servers, 90 clients), one connection per
// client, a quarter of them crossing districts over the trunks.
func scaleCity(seed int64, hosts, shards int, arch psd.Arch) psd.CityConfig {
	districts := hosts / 100
	if districts < 1 {
		districts = 1
	}
	return psd.CityConfig{
		Seed:               seed,
		Districts:          districts,
		ServersPerDistrict: 10,
		ClientsPerDistrict: 90,
		ConnsPerClient:     1,
		CrossEvery:         4,
		OrphanEvery:        16,
		MsgBytes:           256,
		Arch:               arch,
		Shards:             shards,
		TrunkProp:          time.Millisecond,
	}
}

// pointSpec is the child-process work order for one cell.
type pointSpec struct {
	Seed   int64  `json:"seed"`
	Arch   string `json:"arch"`
	Hosts  int    `json:"hosts"`
	Shards int    `json:"shards"`
}

// runScalePointCmd is the -scale-point child entry: measure one cell and
// print the ScalePoint as JSON. A finished cell pins nothing (RunCity
// closes its network, which ends every thread), but each cell still runs
// in its own process so that its malloc count, AllocsPerWindow, sees its
// own run and no other.
func runScalePointCmd(stdout io.Writer, spec string) error {
	var ps pointSpec
	if err := json.Unmarshal([]byte(spec), &ps); err != nil {
		return fmt.Errorf("scale-point: %w", err)
	}
	if ps.Arch == "" {
		ps.Arch = "decomposed"
	}
	p, err := runScalePoint(ps.Seed, ps.Arch, ps.Hosts, ps.Shards)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(p)
}

// spawnScalePoint measures one cell in a fresh child process.
func spawnScalePoint(seed int64, archName string, hosts, shards int) (ScalePoint, error) {
	exe, err := os.Executable()
	if err != nil {
		return ScalePoint{}, err
	}
	spec, _ := json.Marshal(pointSpec{Seed: seed, Arch: archName, Hosts: hosts, Shards: shards})
	cmd := exec.Command(exe, "-scale-point", string(spec))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return ScalePoint{}, fmt.Errorf("scale: hosts=%d shards=%d: %w", hosts, shards, err)
	}
	var p ScalePoint
	if err := json.Unmarshal(out, &p); err != nil {
		return ScalePoint{}, fmt.Errorf("scale: hosts=%d shards=%d: bad child output: %w", hosts, shards, err)
	}
	return p, nil
}

// runScalePoint executes one cell and folds the run into a point.
func runScalePoint(seed int64, archName string, hosts, shards int) (ScalePoint, error) {
	f, err := psd.FlavorByName(archName)
	if err != nil {
		return ScalePoint{}, fmt.Errorf("scale: %w", err)
	}
	cfg := scaleCity(seed, hosts, shards, f.New())
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	rep, err := psd.RunCity(cfg)
	real := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	if err != nil {
		return ScalePoint{}, fmt.Errorf("scale: hosts=%d shards=%d: %w", hosts, shards, err)
	}
	if err := rep.Check(); err != nil {
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
		p.AllocsPerWindow = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(rep.Windows)
	}
	return p, nil
}

// runScale sweeps host counts x scheduler shapes, prints a table, and
// writes a BENCH_scale-style JSON entry to path ("-" for stdout, "" for
// none). The sweep fails if any conservation law fails, or if no
// multi-shard run at the largest host count beats the classic
// single-loop baseline on sim_per_real.
func runScale(stdout io.Writer, path, label, archName string, seed int64, maxHosts int, shardCounts []int) error {
	if archName == "" {
		archName = "decomposed"
	}
	if _, err := psd.FlavorByName(archName); err != nil {
		return fmt.Errorf("scale: %w", err)
	}
	hostSteps := []int{2500, 10000, 40000, 100000}
	var hosts []int
	for _, h := range hostSteps {
		if h <= maxHosts {
			hosts = append(hosts, h)
		}
	}
	if len(hosts) == 0 {
		hosts = []int{maxHosts}
	}

	var points []ScalePoint
	fmt.Fprintf(stdout, "Scale sweep (arch %s)\n", archName)
	fmt.Fprintf(stdout, "%8s %10s %7s %8s %10s %10s %12s %9s %11s\n",
		"hosts", "conns", "shards", "virt_s", "real_s", "sim/real", "events", "windows", "allocs/win")
	var baseline, bestMulti float64
	for _, h := range hosts {
		for _, k := range shardCounts {
			p, err := spawnScalePoint(seed, archName, h, k)
			if err != nil {
				return err
			}
			if h == hosts[len(hosts)-1] {
				// The largest host count is the gating row: measure it
				// twice and keep the faster run, so single-run timing
				// noise cannot flip the speedup verdict. The simulation
				// itself is deterministic — only wall time varies.
				p2, err := spawnScalePoint(seed, archName, h, k)
				if err != nil {
					return err
				}
				if p2.SimPerReal > p.SimPerReal {
					p = p2
				}
			}
			points = append(points, p)
			mode := "classic"
			if k > 0 {
				mode = fmt.Sprintf("%d", k)
			}
			apw := "-"
			if p.AllocsPerWindow > 0 {
				apw = fmt.Sprintf("%.0f", p.AllocsPerWindow)
			}
			fmt.Fprintf(stdout, "%8d %10d %7s %8.1f %10.2f %10.1f %12d %9d %11s\n",
				p.Hosts, p.Conns, mode, p.VirtSeconds, p.RealSeconds, p.SimPerReal, p.Events, p.Windows, apw)
			if h == hosts[len(hosts)-1] {
				if k == 0 {
					baseline = p.SimPerReal
				} else if p.SimPerReal > bestMulti {
					bestMulti = p.SimPerReal
				}
			}
		}
	}
	if baseline > 0 && bestMulti > 0 && bestMulti <= baseline {
		return fmt.Errorf("scale: no multi-shard run beat the single-loop baseline (%.1f vs %.1f sim/real)",
			bestMulti, baseline)
	}
	if baseline > 0 && bestMulti > 0 {
		fmt.Fprintf(stdout, "multi-shard best %.1f sim/real vs single-loop %.1f (%+.0f%%)\n",
			bestMulti, baseline, 100*(bestMulti/baseline-1))
	}

	return writeReport(stdout, path, label, "scale", &seed, "", points)
}
