package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
)

// FaultConfig is the fault-injection setting applied to every world the
// harness builds: static default rates on all links, plus an optional
// fault plan (the text DSL of internal/fault) scheduled on each run's
// simulator.
type FaultConfig struct {
	Rates fault.Rates
	Plan  string
}

// Active reports whether the configuration injects anything at all.
func (c FaultConfig) Active() bool { return !c.Rates.IsZero() || c.Plan != "" }

var (
	faultCfg  FaultConfig
	faultInjs []*fault.Injector
)

// SetFaults installs cfg as the harness-wide fault configuration and
// resets the report accumulator. The plan text is validated eagerly so a
// bad -faultplan fails before any benchmark runs.
func SetFaults(cfg FaultConfig) error {
	if cfg.Plan != "" {
		if _, err := fault.ParsePlan(cfg.Plan); err != nil {
			return err
		}
	}
	faultCfg = cfg
	faultInjs = nil
	return nil
}

// FaultsActive reports whether the harness is currently injecting faults.
func FaultsActive() bool { return faultCfg.Active() }

// applyFaults wires the harness-wide fault configuration into a freshly
// built world and remembers its injector for the aggregate report.
// Called from build, so a caller that adjusts the rates of the world it
// gets back overrides these defaults.
func applyFaults(w *World) {
	if !faultCfg.Active() {
		return
	}
	inj := w.Seg.Faults()
	inj.SetDefaultRates(faultCfg.Rates)
	if faultCfg.Plan != "" {
		p, err := fault.ParsePlan(faultCfg.Plan)
		if err != nil {
			panic("bench: plan validated by SetFaults failed to parse: " + err.Error())
		}
		inj.Schedule(p)
	}
	faultInjs = append(faultInjs, inj)
}

// FaultReport aggregates per-link fault counters across every world
// built since SetFaults, formatted as the injector's standard table.
// Empty when no faults were configured or nothing ran.
func FaultReport() string {
	if len(faultInjs) == 0 {
		return ""
	}
	per := map[string]fault.Counters{}
	var names []string
	for _, inj := range faultInjs {
		for _, l := range inj.Links() {
			if _, ok := per[l]; !ok {
				names = append(names, l)
			}
			c := per[l]
			c.Add(inj.Counters(l))
			per[l] = c
		}
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "Fault injection (%d worlds)\n", len(faultInjs))
	fmt.Fprintf(&b, "  %-8s %10s %8s %6s %8s %8s %8s %6s %6s\n",
		"link", "frames", "drop", "dup", "corrupt", "reorder", "delayed", "down", "part")
	var total fault.Counters
	for _, n := range names {
		c := per[n]
		total.Add(c)
		fmt.Fprintf(&b, "  %-8s %10d %8d %6d %8d %8d %8d %6d %6d\n",
			n, c.Frames, c.Dropped, c.Duplicated, c.Corrupted, c.Reordered, c.Delayed, c.DownDrops, c.PartDrops)
	}
	fmt.Fprintf(&b, "  %-8s %10d %8d %6d %8d %8d %8d %6d %6d\n",
		"total", total.Frames, total.Dropped, total.Duplicated, total.Corrupted, total.Reordered, total.Delayed, total.DownDrops, total.PartDrops)
	return b.String()
}
