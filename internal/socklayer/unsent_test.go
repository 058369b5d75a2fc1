package socklayer

import (
	"fmt"
	"testing"
)

// TestUnsent: what a send moved off its session still has to send,
// from a single buffer or from a gather list, empty elements included,
// and without writing the caller's list.
func TestUnsent(t *testing.T) {
	iov := [][]byte{[]byte("ab"), nil, []byte("cde"), []byte("f")}
	for _, tc := range []struct {
		n    int
		want string
	}{{0, "[[97 98] [] [99 100 101] [102]]"}, {1, "[[98] [] [99 100 101] [102]]"}, {2, "[[99 100 101] [102]]"}, {3, "[[100 101] [102]]"}, {5, "[[102]]"}} {
		if b, got := unsent(nil, iov, tc.n); b != nil || fmt.Sprint(got) != tc.want {
			t.Errorf("unsent(iov, %d) = %v, %v; want nil, %s", tc.n, b, got, tc.want)
		}
	}
	if fmt.Sprint(iov) != "[[97 98] [] [99 100 101] [102]]" {
		t.Errorf("unsent wrote the caller's list: %v", iov)
	}
	if b, iov := unsent([]byte("abc"), nil, 2); string(b) != "c" || iov != nil {
		t.Errorf("unsent(b, 2) = %q, %v; want \"c\", nil", b, iov)
	}
}
