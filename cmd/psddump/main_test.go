package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/psddump.golden")

// TestGolden runs the canned scenario with the default seed and diffs
// the full textual trace against the checked-in golden file. Any change
// to the packet flow, the stack's state machine, or the trace rendering
// shows up here as a reviewable diff; regenerate with
//
//	go test ./cmd/psddump -run TestGolden -update
func TestGolden(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(&buf, 11, "", "net,stack,core", false); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "psddump.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	gotLines := strings.Split(buf.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n  got:  %q\n  want: %q\n(run with -update to regenerate)",
				golden, i+1, g, w)
		}
	}
	t.Fatalf("output differs from %s (run with -update to regenerate)", golden)
}

// TestGoldenStable runs the scenario twice in-process and requires
// byte-identical output — the cheap in-process half of the determinism
// guarantee (CI re-runs the suite with -count=2 for the cross-process
// half).
func TestGoldenStable(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		if _, err := run(&buf, 11, "@0 rates drop=0.01", "net,stack,core", false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("two identical psddump runs produced different output")
	}
}

// TestStatsGolden runs the scenario with -stats and diffs the appended
// registry snapshot against its golden file; regenerate with -update.
func TestStatsGolden(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(&buf, 11, "", "net,stack,core", true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	marker := "\nfinal registry snapshot:\n"
	i := strings.Index(out, marker)
	if i < 0 {
		t.Fatal("-stats output missing the registry snapshot section")
	}
	snap := out[i+1:]
	golden := filepath.Join("testdata", "psddump-stats.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(snap), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(snap))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if snap != string(want) {
		t.Fatalf("registry snapshot differs from %s (run with -update to regenerate):\n%s", golden, snap)
	}
}

// TestLayerFlagRejected covers the flag-parsing path of run.
func TestLayerFlagRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(&buf, 11, "", "net,bogus", false); err == nil {
		t.Fatal("bad -layers value should be rejected")
	}
}

func TestMainSmoke(t *testing.T) {
	// Exercise the export paths end to end via run + the Write helpers.
	dir := t.TempDir()
	var buf bytes.Buffer
	rec, err := run(&buf, 3, "", "net", false)
	if err != nil {
		t.Fatal(err)
	}
	pcapPath := filepath.Join(dir, "out.pcap")
	f, err := os.Create(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WritePcap(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(pcapPath)
	if err != nil || st.Size() <= 24 {
		t.Fatalf("pcap not written: %v, size %d", err, st.Size())
	}
}
