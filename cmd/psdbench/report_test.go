package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// checkReproduces re-runs suite s at its flag defaults and requires the
// rows it returns now to equal the checked-in run's, row for row and
// field for field (the simulation is deterministic, so a difference
// means the file no longer describes this tree: regenerate it with
// `psdbench <suite> -json BENCH_<suite>.json` and say in CHANGES.md
// which rows moved).
func checkReproduces(t *testing.T, file string, s *suite, o *opts, run report[json.RawMessage]) {
	t.Helper()
	rows, err := runSuite(s, o, io.Discard)
	if err != nil {
		t.Errorf("%s: %v", file, err)
		return
	}
	if len(rows) != len(run.Results) {
		t.Errorf("%s: %d rows checked in, the suite returns %d", file, len(run.Results), len(rows))
		return
	}
	for i, want := range run.Results {
		var flat bytes.Buffer
		if err := json.Compact(&flat, want); err != nil {
			t.Fatal(err)
		}
		now, err := json.Marshal(rows[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(flat.Bytes(), now) {
			t.Errorf("%s row %d no longer reproduces:\n  checked in %s\n  now        %s", file, i, flat.Bytes(), now)
		}
	}
}

// TestCheckedInReportsDecode holds the checked-in report of every report
// suite of the table to the one schema — every run carries a label,
// names its suite (the file it sits in), records the seed and config the
// suite records at its flag defaults, and has rows — and, except under
// -short, holds the last run of every suite that does not measure the
// host's clock to what that suite returns now.
func TestCheckedInReportsDecode(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	files = slices.DeleteFunc(files, func(f string) bool {
		return strings.HasSuffix(f, ".ci.json") // a CI artifact left in the checkout, not a trajectory
	})
	reports := 0
	for i := range suites {
		s := &suites[i]
		if !s.report {
			continue
		}
		reports++
		f := "../../BENCH_" + s.name + ".json"
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Error(err)
			continue
		}
		_, o, err := parse([]string{s.name})
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
			if r.Label == "" || r.Suite != s.name {
				t.Errorf("%s run %d: label %q, suite %q", f, i, r.Label, r.Suite)
			}
		}
		if len(runs) == 0 {
			continue
		}
		last := runs[len(runs)-1]
		if seed := s.seed(o); !reflect.DeepEqual(last.Seed, seed) || last.Config != s.config {
			t.Errorf("%s: last run records seed %v, config %q; the suite records %v, %q",
				f, ptr(last.Seed), last.Config, ptr(seed), s.config)
		}
		if !s.wall && !testing.Short() {
			checkReproduces(t, f, s, o, last)
		}
	}
	if len(files) != reports {
		t.Errorf("%d BENCH_*.json files, %d report suites: %v", len(files), reports, files)
	}
}

// ptr prints an optional seed.
func ptr(p *int64) any {
	if p == nil {
		return "none"
	}
	return *p
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

// TestReportRowsPrintAsColumns drives the one renderer through a suite
// entry: a header of the scalar fields' JSON names, one aligned line per
// row, non-scalar fields skipped, a failed row's failures under it, and
// the failed row failing the run while its rows are still returned.
func TestReportRowsPrintAsColumns(t *testing.T) {
	type row struct {
		Name   string   `json:"name"`
		KBps   float64  `json:"kbps"`
		Detail []string `json:"detail"`
		OK     bool     `json:"ok"`
		hidden int
	}
	s := &suite{
		name: "demo", report: true,
		rows: func(_ *opts, emit func(any)) (any, error) {
			emit([]row{{Name: "a", KBps: 1234.56789, OK: true}})
			return []*row{{Name: "longer", KBps: 2, Detail: []string{"x"}}}, nil
		},
		failures: func(r any) []string {
			if r, ok := r.(*row); ok && !r.OK {
				return []string{"FAIL " + r.Name}
			}
			return nil
		},
	}
	var out bytes.Buffer
	rows, err := runSuite(s, nil, &out)
	if err == nil || len(rows) != 2 {
		t.Errorf("runSuite = %d rows, %v; want 2 rows and the failed row's error", len(rows), err)
	}
	want := "name  kbps     ok\n" +
		"a     1234.57  true\n" +
		"longer  2        false\n" + // widths are the first batch's
		"    FAIL longer\n"
	if out.String() != want {
		t.Errorf("printed\n%s\nwant\n%s", out.String(), want)
	}
}
