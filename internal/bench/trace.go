package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/trace"
)

// Flight-recorder capture for the harness: when enabled, every world the
// benchmarks build carries a recorder, and the harness remembers the
// slowest measured run so psdbench can dump the one trace most worth
// staring at.

var traceCfg struct {
	enabled bool
	layers  []trace.Layer
	limit   int

	slowLabel   string
	slowElapsed time.Duration
	slowRec     *trace.Recorder
}

// EnableTrace turns on flight recording for every world built after the
// call. limit caps records per run (0 = unlimited); layers defaults to
// net+stack+core when empty.
func EnableTrace(limit int, layers ...trace.Layer) {
	if len(layers) == 0 {
		layers = []trace.Layer{trace.LayerNet, trace.LayerStack, trace.LayerCore}
	}
	traceCfg.enabled = true
	traceCfg.layers = layers
	traceCfg.limit = limit
}

// DisableTrace switches recording back off (tests).
func DisableTrace() {
	traceCfg.enabled = false
	traceCfg.slowLabel, traceCfg.slowElapsed, traceCfg.slowRec = "", 0, nil
}

// attachTrace wires a recorder into a freshly built world when capture
// is enabled (called from Build).
func attachTrace(w *World) {
	if !traceCfg.enabled {
		return
	}
	rec := trace.New(w.Sim, traceCfg.layers...)
	if traceCfg.limit > 0 {
		rec.SetLimit(traceCfg.limit)
	}
	w.Seg.SetTrace(rec)
	w.Sim.SetTracer(rec.SimTracer())
	w.sysA.SetTrace(rec)
	w.sysB.SetTrace(rec)
	w.Rec = rec
}

// noteRun keeps the recorder of the slowest run seen so far, measured in
// elapsed virtual time.
func noteRun(label string, elapsed time.Duration, rec *trace.Recorder) {
	if rec == nil || elapsed <= traceCfg.slowElapsed {
		return
	}
	traceCfg.slowLabel, traceCfg.slowElapsed, traceCfg.slowRec = label, elapsed, rec
}

// DumpSlowest writes the slowest traced run under dir as trace.txt,
// trace.pcap and trace.json, returning a one-line report.
func DumpSlowest(dir string) (string, error) {
	rec := traceCfg.slowRec
	if rec == nil {
		return "", fmt.Errorf("bench: no traced runs recorded (EnableTrace before running)")
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
		traceCfg.slowLabel, traceCfg.slowElapsed, rec.Len(), dir), nil
}
