package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
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
// stdout; "", or no results, writes nothing. seed and config are
// recorded only by the suites that have one.
func writeReport[R any](stdout io.Writer, path, label, suite string, seed *int64, config string, results []R) error {
	if path == "" || len(results) == 0 {
		return nil
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
		Label: cmp.Or(label, "psdbench"), Date: time.Now().UTC().Format("2006-01-02"),
		Suite: suite, Seed: seed, Config: config, Results: results,
	}})
	if err == nil && path != "-" {
		fmt.Fprintf(stdout, "wrote %s report to %s\n", suite, path)
	}
	return err
}

// printer writes what a suite emits: text as it is, and report rows one
// line each under a header of the columns, which are the rows' scalar
// fields named by their JSON names. A column is as wide as its name or
// the widest value of the first rows printed.
type printer struct {
	w        io.Writer
	failures func(row any) []string // what a row failed, printed under it, if set
	failed   int                    // rows that failed
	widths   []int
}

func (p *printer) print(batch any) {
	if text, ok := batch.(string); ok {
		fmt.Fprintln(p.w, text)
		return
	}
	v := reflect.ValueOf(batch)
	var names []string
	lines := make([][]string, v.Len())
	for i := range lines {
		names, lines[i] = cells(v.Index(i))
	}
	if p.widths == nil && names != nil {
		p.widths = make([]int, len(names))
		for _, line := range append([][]string{names}, lines...) {
			for j, c := range line {
				p.widths[j] = max(p.widths[j], len(c))
			}
		}
		p.line(names)
	}
	for i, line := range lines {
		p.line(line)
		var failed []string
		if p.failures != nil {
			failed = p.failures(v.Index(i).Interface())
		}
		for _, f := range failed {
			fmt.Fprintf(p.w, "    %s\n", f)
		}
		p.failed += min(len(failed), 1)
	}
}

func (p *printer) line(cells []string) {
	var b strings.Builder
	for j, c := range cells {
		fmt.Fprintf(&b, "%-*s  ", p.widths[j], c)
	}
	fmt.Fprintln(p.w, strings.TrimRight(b.String(), " "))
}

// cells returns the JSON names of a row's scalar fields and their
// values, floats to six significant digits.
func cells(row reflect.Value) (names, values []string) {
	row = reflect.Indirect(row)
	for i := range row.NumField() {
		f, v := row.Type().Field(i), row.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if k := v.Kind(); !f.IsExported() || name == "-" || (k < reflect.Bool || k > reflect.Float64) && k != reflect.String {
			continue
		}
		names = append(names, cmp.Or(name, f.Name))
		if v.CanFloat() {
			values = append(values, strconv.FormatFloat(v.Float(), 'g', 6, 64))
		} else {
			values = append(values, fmt.Sprint(v.Interface()))
		}
	}
	return names, values
}
