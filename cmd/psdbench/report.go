package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// report is the one envelope every suite writes: a labelled, dated run
// of one suite, generic over the row type. Each checked-in BENCH_*.json
// is an array of them, one per recorded run, and psdbench writes the
// same shape (an array of one) so files concatenate.
type report[R any] struct {
	Label   string `json:"label"`
	Date    string `json:"date"`
	Suite   string `json:"suite"`
	Seed    *int64 `json:"seed,omitempty"`
	Config  string `json:"config,omitempty"`
	Results []R    `json:"results"`
}

// writeReport writes one run of suite to path as indented JSON: "-" is
// stdout, "" writes nothing. seed and config are recorded only by the
// suites that have one.
func writeReport[R any](stdout io.Writer, path, label, suite string, seed *int64, config string, results []R) error {
	if path == "" {
		return nil
	}
	if label == "" {
		label = "psdbench"
	}
	out := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	err := enc.Encode([]report[R]{{
		Label: label, Date: time.Now().UTC().Format("2006-01-02"),
		Suite: suite, Seed: seed, Config: config, Results: results,
	}})
	if err == nil && path != "-" {
		fmt.Fprintf(stdout, "wrote %s report to %s\n", suite, path)
	}
	return err
}
