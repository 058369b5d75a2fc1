// Package apitest is the conformance suite for socketapi.API
// implementations. The paper's compatibility claim, that socket code runs
// unchanged whether the protocols live in the kernel, in a server or in
// application libraries, is a claim about transcripts: the same calls give
// the same results on every architecture. So each case is a script under
// testdata/, one interpreter runs it on every column, and Run checks each
// transcript against the script and against the other columns.
//
// A line is one call by one process, then -> and the result it must give:
//
//	B1 bind stream :80 -> l
//	B1 listen l 5 -> ok
//	B1 accept l -> s A:* &
//	A1 connect stream B:80 -> c
//	A1 send c "hello" -> 5
//	B1 recv s 16 -> "hello"
//
// # starts a comment line. A process is a host, A or B, and a number: an
// application, or the child a fork names. Lines run one at a time in file
// order, but the line after one ending in & starts once that one blocks.
// The verbs, with f a descriptor, a an address, n a number and d data:
//
//	socket stream|dgram|n  bind f a  connect f a  listen f n  accept f
//	send f d  sendto f d a  sendmsg f d...  recv f n [peek]  recvfrom f n [peek]
//	recvmsg f n... [peek]  close f  shutdown f rd|wr|rdwr  setsockopt f opt n
//	getsockopt f opt  getsockname f  getpeername f  select {f,...} {f,...} dur|forever
//	fork A2  exit  sleep dur  sendzc f d  recvzc f n  sendchain f d...|view
//	recvpeek f n [off+len...]  viewwrite d  recvrelease f n  splice f f n
//
// A descriptor is a name a socket or accept result binds (-> s), or a
// number. A call may name a socket type in place of its first descriptor:
// it opens one first, and its result starts with the name to bind. An
// address is A:port, B:port or :port (the wildcard), or for sendto from,
// the source of the process's last datagram. opt is rcvbuf, sndbuf,
// reuseaddr, nodelay, keepalive or a number. Data is Go-quoted strings,
// each optionally repeated (*n), joined by +, or random*n: n pseudo-random
// letters, the same every time. sendmsg gathers its pieces and recvmsg
// scatters over buffers of the given sizes; sendchain sends its pieces as
// one aliased chain or the last recvpeek's view, and viewwrite writes over
// that view's first bytes.
//
// A result is ok, an errno (EBADF), a number, data, EOF, an address, the
// ready sets of a select, or timeout: a select that found nothing in its
// whole timeout. accept adds the peer, recvfrom the source, and recvpeek
// its ranges' copies and, on a datagram socket, the source. Port * in the
// address ending a result is any ephemeral port, and port new one no
// earlier new matched. A result written ? is open: it must be the same on
// every column, as a stated result is.
//
// Equality follows the socket type. On a stream, recv and recvfrom read
// until they have the stated bytes, EOF or an error, and recvpeek waits
// for its view to hold them: the bytes and where EOF or a reset falls are
// compared, not how reads split. On a datagram socket a read is one call
// and each datagram is compared whole. recvmsg and recvzc are one call on
// any socket, since what they test is one call's return.
package apitest

import (
	"cmp"
	"embed"
	"fmt"
	"io/fs"
	"testing"

	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/wire"
)

// Env is a two-host world with an API factory per host.
type Env struct {
	Sim      *sim.Sim
	NewA     func(name string) socketapi.API // host A (10.0.0.1)
	NewB     func(name string) socketapi.API // host B (10.0.0.2)
	IPA, IPB wire.IPAddr
}

// Column is one architecture under test; Build makes a world for a script.
type Column struct {
	Name  string
	Build func(seed int64) *Env
}

//go:embed testdata/*.sock
var testdata embed.FS

// Run runs every script on each column, as subtests column/script. Each
// transcript must meet every stated result, and the columns that ran
// must agree on every open one.
func Run(t *testing.T, cols []Column) {
	files, _ := fs.Glob(testdata, "testdata/*.sock")
	scripts := make([]*script, len(files))
	for i, f := range files {
		src, _ := testdata.ReadFile(f)
		var err error
		if scripts[i], err = parse(f, string(src)); err != nil {
			t.Fatal(err)
		}
	}
	trs := make([][]transcript, len(scripts))
	for _, c := range cols {
		t.Run(c.Name, func(t *testing.T) {
			for i, s := range scripts {
				t.Run(s.name, func(t *testing.T) {
					tr, err := s.run(c.Name, c.Build(int64(i+1)))
					if err != nil {
						t.Error(err)
					}
					for _, msg := range s.meets(tr) {
						t.Error(msg)
					}
					trs[i] = append(trs[i], tr)
				})
			}
		})
	}
	for i, s := range scripts {
		for _, msg := range s.agree(trs[i]) {
			t.Error(msg)
		}
	}
}

// A transcript is one column's results for a script, one per line as a
// script states them; "" is a call that never returned.
type transcript struct {
	col string
	got []string
}

// meets lists the lines whose result in tr is not the stated one.
func (s *script) meets(tr transcript) (errs []string) {
	seen := map[string]bool{}
	for i, l := range s.lines {
		if l.want != "?" && !match(l.want, tr.got[i], seen) {
			errs = append(errs, fmt.Sprintf("%s: %s: %s %s got %s, want %s",
				l.pos, tr.col, l.proc, l.verb, short(tr.got[i]), short(l.want)))
		}
	}
	return errs
}

// agree lists the open lines on which the transcripts differ.
func (s *script) agree(trs []transcript) (errs []string) {
	for i, l := range s.lines {
		for _, tr := range trs[min(1, len(trs)):] {
			if l.want == "?" && tr.got[i] != trs[0].got[i] {
				errs = append(errs, fmt.Sprintf("%s: %s %s: %s got %s but %s got %s",
					l.pos, l.proc, l.verb, trs[0].col, short(trs[0].got[i]), tr.col, short(tr.got[i])))
			}
		}
	}
	return errs
}

// short abbreviates a result for a message.
func short(r string) string {
	if len(r) > 72 {
		return fmt.Sprintf("%s... (%d bytes)", r[:64], len(r))
	}
	return cmp.Or(r, "nothing (the call never returned)")
}
