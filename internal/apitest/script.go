package apitest

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/socketapi"
)

// script is one conformance case.
type script struct {
	name  string // the file's base name: the subtest's
	lines []line
}

// line is one call and the result the script states for it.
type line struct {
	pos, proc, verb string // pos is file:line, for messages
	args            []any  // parsed by kind; see verbs and parseArg
	flags           int    // MsgPeek for a trailing peek
	bind            string // the descriptor a socket or accept result names
	open            bool   // the first argument is a socket type to open
	want            string // rendered as results are; ? when open
	need            int    // bytes of the first stated data: what a stream read waits for
	bg              bool   // ends in &
}

// symbols names socket types (t), options (o) and shutdown directions (h).
var symbols = map[byte]map[string]int{
	't': {"stream": socketapi.SockStream, "dgram": socketapi.SockDgram},
	'o': {"rcvbuf": socketapi.SoRcvBuf, "sndbuf": socketapi.SoSndBuf, "reuseaddr": socketapi.SoReuseAddr,
		"nodelay": socketapi.TCPNoDelay, "keepalive": socketapi.SoKeepAlive},
	'h': {"rd": socketapi.ShutRd, "wr": socketapi.ShutWr, "rdwr": socketapi.ShutRdWr},
}

// parse reads a script, reporting the first malformed line as file:line.
func parse(file, src string) (*script, error) {
	s := &script{name: strings.TrimSuffix(path.Base(file), path.Ext(file))}
	names := map[string]map[string]bool{} // each process's descriptor names
	for i, text := range strings.Split(src, "\n") {
		if text = strings.TrimSpace(text); text == "" || text[0] == '#' {
			continue
		}
		l, err := parseLine(text, names)
		if l.pos = fmt.Sprintf("%s:%d", file, i+1); err != nil {
			return nil, fmt.Errorf("%s: %v", l.pos, err)
		}
		s.lines = append(s.lines, l)
	}
	return s, nil
}

func parseLine(text string, names map[string]map[string]bool) (l line, err error) {
	toks := fields(text, ' ')
	arrow := slices.Index(toks, "->")
	if arrow < 0 {
		return l, errors.New("missing ->")
	} else if arrow < 2 {
		return l, errors.New("missing process or verb")
	}
	l.proc, l.verb = toks[0], toks[1]
	v, ok := verbs[l.verb]
	k := v.kinds
	if !isProc(l.proc) {
		return l, fmt.Errorf("unknown process %q", l.proc)
	} else if !ok {
		return l, fmt.Errorf("unknown verb %q", l.verb)
	} else if names[l.proc] == nil {
		names[l.proc] = map[string]bool{}
	}
	args := toks[2:arrow]
	if k, ok = strings.CutSuffix(k, "?"); ok && len(args) > 0 && args[len(args)-1] == "peek" {
		l.flags, args = socketapi.MsgPeek, args[:len(args)-1]
	}
	k, rep := strings.CutSuffix(k, "*")
	if len(args) < len(k) && !(rep && len(args) == len(k)-1) || len(args) > len(k) && !rep {
		return l, fmt.Errorf("%s takes %d arguments", l.verb, len(k))
	}
	for j, a := range args {
		kind := k[min(j, len(k)-1)]
		if _, ok := symbols['t'][a]; ok && j == 0 && kind == 'f' {
			kind, l.open = 't', true
		}
		v, err := parseArg(kind, a, l.proc, names)
		if err != nil {
			return l, fmt.Errorf("argument %q: %v", a, err)
		}
		l.args = append(l.args, v)
	}
	if l.verb == "fork" {
		names[args[0]] = maps.Clone(names[l.proc])
	}

	res := toks[arrow+1:]
	if n := len(res); n > 0 && res[n-1] == "&" {
		l.bg, res = true, res[:n-1]
	}
	if len(res) > 0 && (l.verb == "socket" || l.verb == "accept" || l.open) && isName(res[0]) {
		l.bind, res = res[0], res[1:]
		names[l.proc][l.bind] = true
		if len(res) == 0 {
			res = append(res, "ok")
		}
	} else if len(res) == 0 {
		return l, errors.New("missing result")
	}
	data := false
	for j, r := range res {
		if r[0] != '"' && !strings.HasPrefix(r, "random") {
			continue
		}
		d, err := parseData(r)
		if err != nil {
			return l, fmt.Errorf("result %s: %v", r, err)
		}
		if !data {
			l.need, data = len(d), true
		}
		res[j] = strconv.Quote(string(d))
	}
	l.want = strings.Join(res, " ")
	return l, nil
}

// parseArg parses an argument of kind k: f a descriptor (a name proc
// bound, or a number), a an address, n a number, d data, c data or view,
// t, o and h a symbol or number, s a set {f,...}, u a duration or
// forever, p a new process, r a range off+len.
func parseArg(k byte, a, proc string, names map[string]map[string]bool) (any, error) {
	switch k {
	case 'f':
		if n, err := strconv.Atoi(a); err == nil {
			return n, nil
		} else if !names[proc][a] {
			return nil, errors.New("unknown descriptor")
		}
		return a, nil
	case 'a':
		host, port, _ := strings.Cut(a, ":")
		if _, err := strconv.ParseUint(port, 10, 16); a != "from" && (err != nil || len(host) > 1 || !strings.Contains("AB", host)) {
			return nil, errors.New("want A:port, B:port, :port or from")
		}
		return a, nil
	case 'c', 'd':
		if k == 'c' && a == "view" {
			return a, nil
		}
		return parseData(a)
	case 's':
		var set []any
		for _, f := range fields(strings.TrimSuffix(strings.TrimPrefix(a, "{"), "}"), ',') {
			v, err := parseArg('f', f, proc, names)
			if err != nil {
				return nil, err
			}
			set = append(set, v)
		}
		return set, nil
	case 'u':
		if a == "forever" {
			return time.Duration(-1), nil
		}
		return time.ParseDuration(a)
	case 'p':
		if !isProc(a) || names[a] != nil {
			return nil, errors.New("want a new process")
		}
		return a, nil
	case 'r':
		var r socketapi.Range
		_, err := fmt.Sscanf(a, "%d+%d", &r.Off, &r.Len)
		return r, err
	}
	if v, ok := symbols[k][a]; ok {
		return v, nil
	}
	return strconv.Atoi(a)
}

// parseData expands data: "ab"*3+"c" is abababc, and random*n is n
// pseudo-random letters, the same ones every time.
func parseData(s string) ([]byte, error) {
	var out []byte
	for _, part := range fields(s, '+') {
		unit, n, err := part, 1, error(nil)
		if i := strings.LastIndexByte(part, '*'); i > strings.LastIndexByte(part, '"') {
			unit = part[:i]
			n, err = strconv.Atoi(part[i+1:])
		}
		var str string
		if err == nil && n >= 0 && unit == "random" {
			b := make([]byte, n)
			for i, r := 0, rand.New(rand.NewSource(1)); i < n; i++ {
				b[i] = 'a' + byte(r.Intn(26))
			}
			str, n = string(b), 1
		} else if err == nil && n >= 0 {
			str, err = strconv.Unquote(unit)
		}
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad data %s", part)
		}
		out = append(out, strings.Repeat(str, n)...)
	}
	return out, nil
}

// fields splits s at each sep outside a double-quoted string, dropping
// empty fields.
func fields(s string, sep byte) (out []string) {
	start, quoted := 0, false
	for i := 0; i <= len(s); i++ {
		switch {
		case i == len(s) || s[i] == sep && !quoted:
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		case s[i] == '"':
			quoted = !quoted
		case s[i] == '\\' && quoted && i+1 < len(s):
			i++
		}
	}
	return out
}

// isProc reports whether s names a process: a host letter and a number.
func isProc(s string) bool {
	_, err := strconv.ParseUint(s[min(1, len(s)):], 10, 8)
	return len(s) > 1 && (s[0] == 'A' || s[0] == 'B') && err == nil
}

// isName reports whether a result names the descriptor it returns.
func isName(s string) bool { return s != "ok" && s[0] >= 'a' && s[0] <= 'z' }
