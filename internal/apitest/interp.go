package apitest

import (
	"fmt"
	"maps"
	"strconv"
	"strings"
	"time"

	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/wire"
)

// verbs maps each verb to its arguments' kinds, one letter each (see
// parseArg; * repeats the last, ? allows a final peek), and to its call,
// which returns the result as a script states it.
var verbs = map[string]struct {
	kinds string
	do    func(c *call) string
}{
	"socket": {"t", func(c *call) string {
		fd, err := c.api.Socket(c.p, c.int(0))
		c.fds[c.l.bind] = sock{fd, c.int(0)}
		return c.ret("ok", err)
	}},
	"bind":    {"fa", func(c *call) string { return c.ret("ok", c.api.Bind(c.p, c.fd, c.addr(1))) }},
	"connect": {"fa", func(c *call) string { return c.ret("ok", c.api.Connect(c.p, c.fd, c.addr(1))) }},
	"listen":  {"fn", func(c *call) string { return c.ret("ok", c.api.Listen(c.p, c.fd, c.int(1))) }},
	"accept": {"f", func(c *call) string {
		fd, peer, err := c.api.Accept(c.p, c.fd)
		c.fds[c.l.bind] = sock{fd, socketapi.SockStream}
		return c.ret(peer, err)
	}},
	"send":   {"fd", func(c *call) string { return c.ret(c.api.Send(c.p, c.fd, c.data(1), 0)) }},
	"sendto": {"fda", func(c *call) string { return c.ret(c.api.SendTo(c.p, c.fd, c.data(1), 0, c.addr(2))) }},
	"sendmsg": {"fd*", func(c *call) string {
		var iov [][]byte
		for i := range c.l.args[1:] {
			iov = append(iov, c.data(i+1))
		}
		return c.ret(c.api.SendMsg(c.p, c.fd, iov, 0, nil))
	}},
	"recv":     {"fn?", (*call).recv},
	"recvfrom": {"fn?", (*call).recv},
	"recvmsg": {"fnn*?", func(c *call) string {
		iov := make([][]byte, len(c.l.args)-1)
		for i := range iov {
			iov[i] = make([]byte, c.int(i+1))
		}
		n, from, err := c.api.RecvMsg(c.p, c.fd, iov, c.l.flags)
		var got []byte
		for _, b := range iov {
			got = append(got, b[:min(len(b), n-len(got))]...)
		}
		c.from = from
		return c.ret(text(got, c.typ, n == 0), err)
	}},
	"close":       {"f", func(c *call) string { return c.ret("ok", c.api.Close(c.p, c.fd)) }},
	"shutdown":    {"fh", func(c *call) string { return c.ret("ok", c.api.Shutdown(c.p, c.fd, c.int(1))) }},
	"setsockopt":  {"fon", func(c *call) string { return c.ret("ok", c.api.SetSockOpt(c.p, c.fd, c.int(1), c.int(2))) }},
	"getsockopt":  {"fo", func(c *call) string { return c.ret(c.api.GetSockOpt(c.p, c.fd, c.int(1))) }},
	"getsockname": {"f", func(c *call) string { return c.ret(c.api.GetSockName(c.p, c.fd)) }},
	"getpeername": {"f", func(c *call) string { return c.ret(c.api.GetPeerName(c.p, c.fd)) }},
	"select": {"ssu", func(c *call) string {
		d, start := c.l.args[2].(time.Duration), c.p.Now()
		rs, _ := c.set(0, nil)
		ws, _ := c.set(1, nil)
		r, w, err := c.api.Select(c.p, rs, ws, d)
		if len(r)+len(w) == 0 && d >= 0 && c.p.Now().Sub(start) >= d {
			return c.ret("timeout", err)
		}
		_, rn := c.set(0, r)
		_, wn := c.set(1, w)
		return c.ret(rn+" "+wn, err)
	}},
	"fork": {"p", func(c *call) string {
		api, err := c.api.Fork(c.p, c.l.args[0].(string))
		if child := c.procs[c.l.args[0].(string)]; err == nil {
			child.api, child.fds = api, maps.Clone(c.fds)
		}
		return c.ret("ok", err)
	}},
	"exit":   {"", func(c *call) string { c.api.ExitProcess(c.p); return "ok" }},
	"sleep":  {"u", func(c *call) string { c.p.Sleep(c.l.args[0].(time.Duration)); return "ok" }},
	"sendzc": {"fd", func(c *call) string { return c.ret(c.zc().SendZC(c.p, c.fd, c.data(1), 0)) }},
	"recvzc": {"fn", func(c *call) string {
		b, from, err := c.zc().RecvZC(c.p, c.fd, c.int(1), 0)
		c.from = from
		return c.ret(text(b, c.typ, len(b) == 0), err)
	}},
	"sendchain": {"fc*", func(c *call) string {
		ch := mbuf.New()
		for i, d := range c.l.args[1:] {
			if d == "view" {
				ch, c.view = c.view, nil
			} else {
				ch.AppendAlias(c.data(i + 1))
			}
		}
		return c.ret(c.ch().SendChain(c.p, c.fd, ch, 0))
	}},
	"recvpeek":    {"fnr*", (*call).recvPeek},
	"viewwrite":   {"d", func(c *call) string { c.view.WriteAt(c.data(0), 0); return "ok" }},
	"recvrelease": {"fn", func(c *call) string { return c.ret("ok", c.ch().RecvRelease(c.p, c.fd, c.int(1))) }},
	"splice": {"ffn", func(c *call) string {
		src, _ := c.desc(c.l.args[1])
		return c.ret(c.ch().Splice(c.p, c.fd, src, c.int(2)))
	}},
}

// proc is one process of a running script.
type proc struct {
	api   socketapi.API
	fds   map[string]sock
	from  socketapi.SockAddr // source of the last datagram it received
	view  *mbuf.Chain        // the last recvpeek's view, until sent on
	lines []int
}

// sock is a named descriptor and the type it was opened with.
type sock struct{ fd, typ int }

// call is one line being made by its process.
type call struct {
	*proc
	p       *sim.Proc
	e       *Env
	l       *line
	fd, typ int // the first argument's descriptor, if it is one
	procs   map[string]*proc
}

// run runs the script in one column's world. The error is the run's, such
// as the deadlock a call that never returns leaves.
func (s *script) run(col string, e *Env) (transcript, error) {
	tr := transcript{col: col, got: make([]string, len(s.lines))}
	turn := 0 // the next line to start
	var moved sim.Cond
	next := func() { turn++; moved.Broadcast() }
	procs := map[string]*proc{}
	spawn := func(name string, api socketapi.API) {
		pr := &proc{api: api, fds: map[string]sock{}}
		procs[name] = pr
		e.Sim.Spawn(name, func(p *sim.Proc) {
			for _, i := range pr.lines {
				for turn != i {
					moved.Wait(p)
				}
				c := &call{proc: pr, p: p, e: e, l: &s.lines[i], procs: procs}
				if c.l.bg {
					next()
				}
				if tr.got[i] = c.make(); !c.l.bg {
					next()
				}
			}
			if pr.view != nil {
				pr.view.Release()
			}
		})
	}
	for i, l := range s.lines {
		if procs[l.proc] == nil {
			spawn(l.proc, map[byte]func(string) socketapi.API{'A': e.NewA, 'B': e.NewB}[l.proc[0]](l.proc))
		}
		if l.verb == "fork" {
			spawn(l.args[0].(string), nil) // the fork gives it its API and descriptors
		}
		procs[l.proc].lines = append(procs[l.proc].lines, i)
	}
	e.Sim.Deadline = sim.Time(30 * time.Minute)
	err := e.Sim.Run()
	e.Sim.Close()
	return tr, err
}

// make makes the line's call, first opening the socket it names by type.
func (c *call) make() string {
	if c.l.open {
		if r := verbs["socket"].do(c); r != "ok" {
			return r
		}
		c.fd, c.typ = c.desc(c.l.bind)
	} else if strings.HasPrefix(verbs[c.l.verb].kinds, "f") {
		c.fd, c.typ = c.desc(c.l.args[0])
	}
	return verbs[c.l.verb].do(c)
}

// recv makes a recv or recvfrom: on a stream, as many as reading the
// stated bytes takes.
func (c *call) recv() string {
	var got []byte
	for {
		b := make([]byte, c.int(1))
		if c.typ == socketapi.SockStream && c.l.need > len(got) {
			b = b[:min(len(b), c.l.need-len(got))]
		}
		n, err := 0, error(nil)
		if c.l.verb == "recv" {
			n, err = c.api.Recv(c.p, c.fd, b, c.l.flags)
		} else {
			n, c.from, err = c.api.RecvFrom(c.p, c.fd, b, c.l.flags)
		}
		if got = append(got, b[:n]...); err != nil {
			return errno(err)
		} else if c.typ == socketapi.SockStream && n > 0 && len(got) < c.l.need {
			continue
		} else if c.l.verb == "recv" {
			return text(got, c.typ, n == 0)
		}
		return text(got, c.typ, n == 0) + " " + c.e.name(c.from)
	}
}

// recvPeek makes a RecvPeek: on a stream, again each millisecond until the
// view holds the stated bytes.
func (c *call) recvPeek() string {
	var ranges []socketapi.Range
	for _, r := range c.l.args[2:] {
		ranges = append(ranges, r.(socketapi.Range))
	}
	v, err := c.ch().RecvPeek(c.p, c.fd, c.int(1), ranges)
	for err == nil && c.typ == socketapi.SockStream && v.Chain.Len() > 0 && v.Chain.Len() < c.l.need {
		v.Chain.Release()
		c.p.Sleep(time.Millisecond)
		v, err = c.ch().RecvPeek(c.p, c.fd, c.int(1), ranges)
	}
	if err != nil {
		return errno(err)
	} else if c.view != nil {
		c.view.Release()
	}
	c.view, c.from = v.Chain, v.From
	b := make([]byte, v.Chain.Len())
	v.Chain.ReadAt(b, 0)
	r := text(b, c.typ, len(b) == 0)
	for _, cp := range v.Copied {
		r += " " + strconv.Quote(string(cp))
	}
	if c.typ == socketapi.SockDgram {
		r += " " + c.e.name(v.From)
	}
	return r
}

func (c *call) int(i int) int                 { return c.l.args[i].(int) }
func (c *call) data(i int) []byte             { return c.l.args[i].([]byte) }
func (c *call) addr(i int) socketapi.SockAddr { return c.e.sockAddr(c.l.args[i], c.from) }
func (c *call) zc() socketapi.ZeroCopyAPI     { return c.api.(socketapi.ZeroCopyAPI) }
func (c *call) ch() socketapi.ChainAPI        { return c.api.(socketapi.ChainAPI) }

// desc resolves a descriptor: a bound name, or a number of unknown type.
func (c *call) desc(a any) (fd, typ int) {
	if name, ok := a.(string); ok {
		return c.fds[name].fd, c.fds[name].typ
	}
	return a.(int), 0
}

// set builds select set i, and renders those of its members in ready.
func (c *call) set(i int, ready socketapi.FDSet) (socketapi.FDSet, string) {
	s, names := socketapi.FDSet{}, []string{}
	for _, ref := range c.l.args[i].([]any) {
		fd, _ := c.desc(ref)
		if s[fd] = true; ready[fd] {
			names = append(names, fmt.Sprint(ref))
		}
	}
	return s, "{" + strings.Join(names, ",") + "}"
}

// ret renders a call's return: its errno if it failed, else v.
func (c *call) ret(v any, err error) string {
	if err != nil {
		return errno(err)
	} else if a, ok := v.(socketapi.SockAddr); ok {
		return c.e.name(a)
	}
	return fmt.Sprint(v)
}

// text renders received bytes, then EOF if a stream's read ended there.
func text(b []byte, typ int, eof bool) string {
	s := strconv.Quote(string(b))
	if typ == socketapi.SockStream && eof {
		return strings.TrimPrefix(s+" EOF", `"" `)
	}
	return s
}

// sockAddr resolves a stated address; from is the process's last source.
func (e *Env) sockAddr(a any, from socketapi.SockAddr) socketapi.SockAddr {
	if a == "from" {
		return from
	}
	host, port, _ := strings.Cut(a.(string), ":")
	p, _ := strconv.Atoi(port)
	return socketapi.SockAddr{Addr: map[string]wire.IPAddr{"A": e.IPA, "B": e.IPB}[host], Port: uint16(p)}
}

// name renders an address as a script states it.
func (e *Env) name(a socketapi.SockAddr) string {
	h, ok := map[wire.IPAddr]string{e.IPA: "A", e.IPB: "B", {}: ""}[a.Addr]
	if !ok {
		h = a.Addr.String()
	}
	return fmt.Sprintf("%s:%d", h, a.Port)
}

// errno names an error by the errno each socketapi error ends in.
func errno(err error) string {
	s := err.Error()
	if i := strings.LastIndexByte(s, '('); i >= 0 && strings.HasSuffix(s, ")") {
		return s[i+1 : len(s)-1]
	}
	return s
}

// match reports whether got meets want: equal, but for a port * or new
// that ends want (seen holds the ports new has matched).
func match(want, got string, seen map[string]bool) bool {
	for _, w := range []string{"*", "new"} {
		if pre, ok := strings.CutSuffix(want, ":"+w); ok {
			port, found := strings.CutPrefix(got, pre+":")
			n, err := strconv.Atoi(port)
			ok = found && err == nil && n >= 1024 && !(w == "new" && seen[port])
			seen[port] = seen[port] || ok && w == "new"
			return ok
		}
	}
	return want == got
}
