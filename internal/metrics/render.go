package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteText renders the snapshot as flat "name value" lines, histograms
// expanded into .count/.sum/.min/.max/.p50/.p90/.p99 sublines. Output
// is byte-stable for a given snapshot.
func WriteText(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w) // keeps the first write error; Flush returns it
	fmt.Fprintf(bw, "# at %d\n", int64(s.At))
	for _, it := range s.Items {
		if h := it.Hist; h != nil {
			fmt.Fprintf(bw, "%s.count %d\n%s.sum %d\n%s.min %d\n%s.max %d\n%s.p50 %d\n%s.p90 %d\n%s.p99 %d\n",
				it.Name, h.Count, it.Name, h.Sum, it.Name, h.Min, it.Name, h.Max,
				it.Name, h.P50, it.Name, h.P90, it.Name, h.P99)
		} else {
			fmt.Fprintf(bw, "%s %d\n", it.Name, it.Value)
		}
	}
	return bw.Flush()
}

// WriteJSON renders the snapshot as indented JSON. encoding/json emits
// struct fields in declaration order and map-free snapshots have no
// iteration-order hazard, so the bytes are stable.
func WriteJSON(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// promName converts a dotted metric name to Prometheus exposition form:
// "psd_" prefix, every character outside [a-zA-Z0-9_] becomes "_".
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 4)
	b.WriteString("psd_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm renders the snapshot in Prometheus text exposition format.
// Histograms render as summaries (quantile labels plus _sum and
// _count). Duplicate sanitized names are allowed by the format since
// each carries its own TYPE line once; we emit TYPE per metric name the
// first time it appears.
func WriteProm(w io.Writer, s Snapshot) error {
	bw := bufio.NewWriter(w) // keeps the first write error; Flush returns it
	seenType := make(map[string]bool)
	for _, it := range s.Items {
		pn := promName(it.Name)
		typ := "gauge"
		switch {
		case it.Hist != nil:
			typ = "summary"
		case it.Kind == KindCounter.String():
			typ = "counter"
		}
		if !seenType[pn] {
			fmt.Fprintf(bw, "# TYPE %s %s\n", pn, typ)
			seenType[pn] = true
		}
		if h := it.Hist; h != nil {
			fmt.Fprintf(bw, "%s{quantile=\"0.5\"} %d\n%s{quantile=\"0.9\"} %d\n%s{quantile=\"0.99\"} %d\n%s_sum %d\n%s_count %d\n",
				pn, h.P50, pn, h.P90, pn, h.P99, pn, h.Sum, pn, h.Count)
		} else {
			fmt.Fprintf(bw, "%s %d\n", pn, it.Value)
		}
	}
	return bw.Flush()
}
