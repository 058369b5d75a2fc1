package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestCheckedInReportsDecode holds the seven checked-in trajectories to
// the one schema: every run carries a label, names its suite (the file
// it sits in), and has rows.
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
	}
	if checked != 7 {
		t.Errorf("checked %d BENCH_*.json files, want 7", checked)
	}
}

// TestWriteReportRoundTrip writes a run to "-" and reads it back: the
// writer fills the default label and the date, keeps seed and config
// only when given, and emits the shape the checked-in files have.
func TestWriteReportRoundTrip(t *testing.T) {
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = tmp
	type row struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	seed := int64(0)
	err = writeReport("-", "", "scale", &seed, "", []row{{"a", 1}, {"b", 2}})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
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

	if err := writeReport("", "x", "scale", nil, "", []row{{"a", 1}}); err != nil {
		t.Errorf(`path "" must write nothing: %v`, err)
	}
}
