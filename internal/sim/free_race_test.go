//go:build race

package sim

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// putVia puts r on f through one helper frame, as job.done or putCall
// do. It returns the file:line it was called from and what Put panicked
// with.
func putVia(f *Free[int], r *int) (site string, panicked any) {
	_, file, line, _ := runtime.Caller(1)
	site = fmt.Sprintf("%s:%d", filepath.Base(file), line)
	defer func() { panicked = recover() }()
	f.Put(r)
	return site, nil
}

// TestFreeDoublePutPanics: under the race build, putting a record that
// is still on the list panics, and the message names the callers of
// both puts even when the two went through one helper; a record taken
// off the list may be put again.
func TestFreeDoublePutPanics(t *testing.T) {
	var f Free[int]
	r := new(int)
	putVia(&f, r)
	f.Get()
	first, p := putVia(&f, r)
	if p != nil {
		t.Fatalf("put after Get panicked: %v", p)
	}
	again, p := putVia(&f, r)
	msg, _ := p.(string)
	if first == again || !strings.Contains(msg, "twice") ||
		!strings.Contains(msg, "first from") || !strings.Contains(msg, first) || !strings.Contains(msg, again) {
		t.Fatalf("double put panicked with %q, want the message to name %s and %s", p, first, again)
	}
}
