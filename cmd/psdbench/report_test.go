package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// decodeReports strictly decodes one BENCH-style document: an array of
// envelopes and nothing else.
func decodeReports(t *testing.T, doc []byte) []report[json.RawMessage] {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	var runs []report[json.RawMessage]
	if err := dec.Decode(&runs); err != nil {
		t.Fatal(err)
	}
	return runs
}

// reproduce maps a suite to the rows it returns now for a checked-in
// run's envelope, at the sizes the flags default to. scale is absent:
// it records wall time, so its file is only held to the schema.
var reproduce = map[string]func(run report[json.RawMessage]) (any, error){
	"metrics": func(run report[json.RawMessage]) (any, error) {
		cfg, err := bench.FindConfig(run.Config)
		if err != nil {
			return nil, err
		}
		return bench.RunMetricsSuite(nil, cfg)
	},
	"offload":   func(report[json.RawMessage]) (any, error) { return bench.RunOffloadSuite(nil) },
	"dataplane": func(report[json.RawMessage]) (any, error) { return bench.RunDataplaneSuite(nil) },
	"proxy":     func(report[json.RawMessage]) (any, error) { return bench.RunProxySuite(nil, 0) }, // 0 is the -proxy-mb default
	"scenarios": func(run report[json.RawMessage]) (any, error) {
		if run.Seed == nil {
			return nil, errors.New("run records no seed")
		}
		return scenarioSuite(*run.Seed)
	},
}

// checkReproduces re-runs the suite of a checked-in run and requires
// the rows it returns now to equal the recorded ones, row for row and
// field for field (the simulation is deterministic, so a difference
// means the file no longer describes this tree: regenerate it with the
// flag that wrote it and say in CHANGES.md which rows moved).
func checkReproduces(t *testing.T, file string, run report[json.RawMessage]) {
	t.Helper()
	suite, ok := reproduce[run.Suite]
	if !ok {
		return
	}
	rows, err := suite(run)
	if err != nil {
		t.Errorf("%s: %v", file, err)
		return
	}
	doc, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var now []json.RawMessage
	if err := json.Unmarshal(doc, &now); err != nil {
		t.Fatal(err)
	}
	if len(now) != len(run.Results) {
		t.Errorf("%s: %d rows checked in, the suite returns %d", file, len(run.Results), len(now))
		return
	}
	for i, want := range run.Results {
		var flat bytes.Buffer
		if err := json.Compact(&flat, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flat.Bytes(), now[i]) {
			t.Errorf("%s row %d no longer reproduces:\n  checked in %s\n  now        %s", file, i, flat.Bytes(), now[i])
		}
	}
}

// TestCheckedInReportsDecode holds the six checked-in report files to
// the one schema — every run carries a label, names its suite (the file
// it sits in), and has rows — and, except under -short, holds the last
// run of every virtual-clock suite to what that suite returns now.
func TestCheckedInReportsDecode(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range files {
		if strings.HasSuffix(f, ".ci.json") {
			continue // a CI artifact left in the checkout, not a trajectory
		}
		checked++
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		runs := decodeReports(t, doc)
		if len(runs) == 0 {
			t.Errorf("%s: no runs", f)
		}
		for i, r := range runs {
			if len(r.Results) == 0 {
				t.Errorf("%s run %d: no results", f, i)
			}
			if want := "BENCH_" + r.Suite + ".json"; r.Label == "" || filepath.Base(f) != want {
				t.Errorf("%s run %d: label %q, suite %q", f, i, r.Label, r.Suite)
			}
		}
		if len(runs) > 0 && !testing.Short() {
			checkReproduces(t, f, runs[len(runs)-1])
		}
	}
	if checked != 6 {
		t.Errorf("checked %d BENCH_*.json files, want 6", checked)
	}
}

// TestWriteReportRoundTrip writes a run to "-" and reads it back: the
// writer fills the default label and the date, keeps seed and config
// only when given, and emits the shape the checked-in files have.
func TestWriteReportRoundTrip(t *testing.T) {
	type row struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	seed := int64(0)
	var stdout bytes.Buffer
	if err := writeReport(&stdout, "-", "", "scale", &seed, "", []row{{"a", 1}, {"b", 2}}); err != nil {
		t.Fatal(err)
	}
	doc := stdout.Bytes()
	runs := decodeReports(t, doc)
	if len(runs) != 1 {
		t.Fatalf("wrote %d runs, want 1:\n%s", len(runs), doc)
	}
	r := runs[0]
	if r.Label != "psdbench" || r.Suite != "scale" || len(r.Date) != len("2006-01-02") ||
		r.Seed == nil || *r.Seed != 0 || r.Config != "" {
		t.Errorf("envelope = %+v", r)
	}
	var last row
	if len(r.Results) != 2 || json.Unmarshal(r.Results[1], &last) != nil || last != (row{"b", 2}) {
		t.Errorf("rows = %s", r.Results)
	}
	if bytes.Contains(doc, []byte(`"config"`)) {
		t.Errorf("empty config was written:\n%s", doc)
	}

	if err := writeReport(&stdout, "", "x", "scale", nil, "", []row{{"a", 1}}); err != nil {
		t.Errorf(`path "" must write nothing: %v`, err)
	}
}
