//go:build race

package sim

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
)

// putDepth is how many callers a listed record remembers of the Put that
// listed it: enough to name the caller of a helper that puts for it.
const putDepth = 4

// freeCheck is Free's double-put check under the race detector. It maps
// each record ever put to where its last Put left it on the list and to
// that Put's program counters, stored as they are and formatted only on
// a panic, so a warm Put allocates nothing. A record is on the list when
// the slot its last Put filled still holds it: a record leaves only from
// the top, so a listed record never moves, and Get needs no bookkeeping.
type freeCheck[T any] struct {
	last map[*T]putSite
}

type putSite struct {
	at  int
	pcs [putDepth]uintptr
}

func (f *Free[T]) checkPut(r *T) {
	var pcs [putDepth]uintptr
	runtime.Callers(3, pcs[:]) // from Put's caller outwards
	if first, ok := f.check.last[r]; ok && first.at < len(f.list) && f.list[first.at] == r {
		panic(fmt.Sprintf("sim: %T put on a free list twice: first from %s, again from %s",
			r, callers(first.pcs), callers(pcs)))
	}
	if f.check.last == nil {
		f.check.last = make(map[*T]putSite)
	}
	f.check.last[r] = putSite{len(f.list), pcs}
}

// callers renders recorded program counters as file:line, innermost
// first.
func callers(pcs [putDepth]uintptr) string {
	var b strings.Builder
	frames := runtime.CallersFrames(pcs[:])
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		if f.File == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" < ")
		}
		fmt.Fprintf(&b, "%s:%d", filepath.Base(f.File), f.Line)
	}
	return b.String()
}
