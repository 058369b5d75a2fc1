package apitest

import (
	"strings"
	"testing"
)

// TestOpenLineMustAgree: two columns that differ on a ? line fail, and the
// message names the script, the line and both columns.
func TestOpenLineMustAgree(t *testing.T) {
	s, err := parse("testdata/open.sock", "# a comment\nA1 bind dgram :0 -> u\nA1 getsockname u -> ?\n")
	if err != nil {
		t.Fatal(err)
	}
	same := []transcript{{"inkernel", []string{"u", ":1024"}}, {"uxserver", []string{"u", ":1024"}}}
	if errs := s.agree(same); len(errs) != 0 {
		t.Errorf("agreeing columns: %q", errs)
	}
	differ := append(same, transcript{"library", []string{"u", ":1025"}})
	errs := s.agree(differ)
	if len(errs) != 1 {
		t.Fatalf("got %d errors, want 1: %q", len(errs), errs)
	}
	for _, want := range []string{"testdata/open.sock:3", "inkernel", "library", ":1024", ":1025"} {
		if !strings.Contains(errs[0], want) {
			t.Errorf("%q does not name %s", errs[0], want)
		}
	}
	if errs := s.meets(differ[2]); len(errs) != 1 || !strings.Contains(errs[0], "testdata/open.sock:2: library") {
		t.Errorf("a stated ok met by u: %q", errs)
	}
}

// TestStatedResults: what meets a stated result, by the rules for ports
// and received data.
func TestStatedResults(t *testing.T) {
	for _, c := range []struct {
		want, got string
		ok        bool
	}{
		{`"hi" A:*`, `"hi" A:1024`, true},
		{`"hi" A:*`, `"hi" A:80`, false},   // not an ephemeral port
		{`"hi" A:*`, `"hi" B:1024`, false}, // another host
		{`":*"`, `"x"`, false},             // * in data is data
		{`EOF`, `"x" EOF`, false},
		{`:new`, `:1024`, false}, // the first :new below saw it
	} {
		seen := map[string]bool{}
		match(":new", ":1024", seen)
		if got := match(c.want, c.got, seen); got != c.ok {
			t.Errorf("match(%s, %s) = %v", c.want, c.got, got)
		}
	}
	if got := text(nil, 1, true) + " " + text([]byte("ab"), 1, true) + " " + text(nil, 2, true); got != `EOF "ab" EOF ""` {
		t.Errorf("text = %s", got)
	}
}

// TestMalformedLines: a line the parser cannot take fails with file:line.
func TestMalformedLines(t *testing.T) {
	for _, c := range []struct{ line, err string }{
		{`A1 frobnicate u -> ok`, `unknown verb "frobnicate"`},
		{`A1 socket dgram ok`, `missing ->`},
		{`C1 socket dgram -> u`, `unknown process "C1"`},
		{`socket dgram -> u`, `unknown process "socket"`},
		{`A1 close u -> ok`, `unknown descriptor`},
		{`A1 bind dgram -> ok`, `bind takes 2 arguments`},
		{`A1 send 3 "x -> 1`, `missing ->`},
		{`A1 sendto 3 "x" C:7 -> 1`, `want A:port`},
		{`A1 fork A1 -> ok`, `want a new process`},
		{`A1 socket dgram ->`, `missing result`},
	} {
		_, err := parse("testdata/bad.sock", "A1 sleep 1ms -> ok\n"+c.line)
		if err == nil || !strings.HasPrefix(err.Error(), "testdata/bad.sock:2: ") || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: err = %v, want testdata/bad.sock:2: ...%s", c.line, err, c.err)
		}
	}
}

// TestData: the data notation, and the canonical form a stated result
// takes.
func TestData(t *testing.T) {
	s, err := parse("d.sock", `A1 bind dgram :7 -> u
A1 recvfrom u 64 -> "a b"*2+"\x00"+random*3 A:* &`)
	if err != nil {
		t.Fatal(err)
	}
	l := s.lines[1]
	r, _ := parseData("random*3")
	if l.want != `"a ba b\x00`+string(r)+`" A:*` || l.need != 10 || !l.bg || s.lines[0].bind != "u" || !s.lines[0].open {
		t.Errorf("line = %+v", l)
	}
	for _, bad := range []string{`"x"*`, `"x"*-1`, `"x`, `x`, `random*y`} {
		if _, err := parseData(bad); err == nil {
			t.Errorf("parseData(%s) took it", bad)
		}
	}
}
