package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/trace"
	"repro/psd"
)

// Env is the environment a harness run builds its worlds in — the
// faults on every segment, whether the flight recorder runs — and what
// it collects from them: every faulted world's injector, for
// FaultReport, and the slowest traced run, for DumpSlowest. A nil *Env
// builds clean, untraced worlds and collects nothing.
type Env struct {
	// Trace records every world on the flight recorder (net, stack and
	// core layers).
	Trace bool

	plan *fault.Plan // nil: no faults
	injs []*fault.Injector

	slowLabel   string
	slowElapsed time.Duration
	slowRec     *trace.Recorder
}

// config is the network of a world built in env at seed, with a
// registry when reg is set.
func (env *Env) config(seed int64, reg bool) psd.Config {
	pc := psd.Config{Seed: seed, Metrics: reg}
	if env != nil && env.Trace {
		pc.Trace = []psd.TraceLayer{psd.TraceNet, psd.TraceStack, psd.TraceCore}
	}
	return pc
}

// SetFaults makes the fault plan text (the DSL of internal/fault) the
// faults of every world env builds from now on, scheduled on each
// world's injector, and empties the report. The text is parsed here, so
// a bad -faultplan fails before any benchmark runs.
func (env *Env) SetFaults(text string) error {
	plan, err := fault.ParsePlan(text)
	if err != nil {
		return err
	}
	if len(plan.Events) == 0 {
		plan = nil
	}
	env.plan, env.injs = plan, nil
	return nil
}

// FaultReport aggregates per-link fault counters across every world
// built in env since SetFaults, formatted as one table: a row per link
// name, sorted, and a total. It is the one formatter of fault counters.
// Empty when no faults were configured or no world was built.
func (env *Env) FaultReport() string {
	if len(env.injs) == 0 {
		return ""
	}
	per := map[string]fault.Counters{}
	var names []string
	for _, inj := range env.injs {
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
	fmt.Fprintf(&b, "Fault injection (%d worlds)\n", len(env.injs))
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

// noteRun keeps the recorder of the slowest traced run seen so far,
// measured in elapsed virtual time.
func (env *Env) noteRun(label string, elapsed time.Duration, rec *trace.Recorder) {
	if env == nil || rec == nil || elapsed <= env.slowElapsed {
		return
	}
	env.slowLabel, env.slowElapsed, env.slowRec = label, elapsed, rec
}

// DumpSlowest writes the slowest traced run under dir as trace.txt,
// trace.pcap and trace.json, returning a one-line report.
func (env *Env) DumpSlowest(dir string) (string, error) {
	rec := env.slowRec
	if rec == nil {
		return "", fmt.Errorf("bench: no traced runs recorded (set Env.Trace before running)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	for _, out := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"trace.txt", rec.WriteText},
		{"trace.pcap", rec.WritePcap},
		{"trace.json", rec.WriteChromeTrace},
	} {
		f, err := os.Create(filepath.Join(dir, out.name))
		if err != nil {
			return "", err
		}
		err = out.write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("slowest run: %s (%v, %d events) -> %s/{trace.txt,trace.pcap,trace.json}",
		env.slowLabel, env.slowElapsed, rec.Len(), dir), nil
}

// buildDefaults is what Build adds to the worlds it builds: the flight
// recorder and registry benchmark/ asks for through the four functions
// below. Build is its only reader; every other world is built from an
// explicit Env.
var buildDefaults psd.Config

// EnableMetrics gives every world Build makes after the call a metrics
// registry.
func EnableMetrics() { buildDefaults.Metrics = true }

// DisableMetrics switches Build's registry back off.
func DisableMetrics() { buildDefaults.Metrics = false }

// EnableTrace gives every world Build makes after the call a flight
// recorder on the given layers, capped at limit records (0 = unlimited).
func EnableTrace(limit int, layers ...trace.Layer) {
	buildDefaults.Trace, buildDefaults.TraceLimit = layers, limit
}

// DisableTrace switches Build's recorder back off.
func DisableTrace() { buildDefaults.Trace, buildDefaults.TraceLimit = nil, 0 }
