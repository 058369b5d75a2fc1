package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

// TestGoldenFaultTraceDrive drives EXPERIMENTS.md's reproducible fault
// example with the flight recorder on, through the same flag parsing the
// command does, and holds its stdout — the table row, the fault report
// and the slowest-run line, with the dump directory stripped — plus the
// SHA-256 of the dumped trace.txt to a golden file. Regenerate with
//
//	go test ./cmd/psdbench -run TestGoldenFaultTraceDrive -update
func TestGoldenFaultTraceDrive(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{
		"table2", "-config", "Mach 3.0+UX Library-SHM-IPF", "-mb", "1", "-rounds", "20",
		"-faultplan", "@0 rates drop=0.01; @2s partition A|B for=300ms", "-trace", dir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	txt, err := os.ReadFile(filepath.Join(dir, "trace.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.ReplaceAll(out.String(), dir, "<dir>") +
		fmt.Sprintf("trace.txt: %d lines, sha256 %x\n", bytes.Count(txt, []byte("\n")), sha256.Sum256(txt))

	checkGolden(t, "faulttrace.golden", got)
}

// TestGoldenTable4 pins `psdbench table4`, both tables, byte for byte:
// every cell is a difference of the hosts' CPU ledgers. Regenerate with
//
//	go test ./cmd/psdbench -run TestGoldenTable4 -update
func TestGoldenTable4(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"table4"}, &out); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table4.golden", out.String())
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (run with -update to regenerate):\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

// TestUsageRunsNothing: a command line without a suite, naming an
// unknown one, or setting a flag its suite does not read is errUsage,
// and nothing runs: no output, no file.
func TestUsageRunsNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	for _, args := range [][]string{
		nil,
		{"table5"},
		{"list", "-trace", dir},
		{"scenarios", "-faultplan", "@0 rates drop=0.5"},
		{"table3", "-json", "-"},
		{"metrics", "-config", "X"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); !errors.Is(err, errUsage) || out.Len() > 0 {
			t.Errorf("psdbench %q: %v, %d bytes out; want a usage error and nothing run", args, err, out.Len())
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("list -trace made %s: %v", dir, err)
	}
}
