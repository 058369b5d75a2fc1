package psd

import (
	"errors"
	"sync"
	"time"
)

// The pieces every workload runner (churn, city, LB, scenarios) shares:
// a workload is a topology, a traffic plan and a list of laws, and what
// the traffic plans have in common lives here once.

// listenOn opens a listening TCP socket on port with the backlog every
// workload uses.
func listenOn(app App, t *Thread, port uint16) (int, error) {
	ls, err := app.Socket(t, SockStream)
	if err != nil {
		return 0, err
	}
	if err := app.Bind(t, ls, SockAddr{Port: port}); err != nil {
		return 0, err
	}
	return ls, app.Listen(t, ls, 64)
}

// errShort is what recvFull and sendFull report when the peer goes
// away before the whole buffer moved.
var errShort = errors.New("premature EOF")

// recvFull reads exactly len(buf) bytes.
func recvFull(app App, t *Thread, fd int, buf []byte) error {
	for off := 0; off < len(buf); {
		nr, err := app.Recv(t, fd, buf[off:], 0)
		if err != nil {
			return err
		}
		if nr == 0 {
			return errShort
		}
		off += nr
	}
	return nil
}

// sendFull writes all of buf.
func sendFull(app App, t *Thread, fd int, buf []byte) error {
	for off := 0; off < len(buf); {
		nw, err := app.Send(t, fd, buf[off:], 0)
		if err != nil {
			return err
		}
		if nw == 0 {
			return errShort
		}
		off += nw
	}
	return nil
}

// errSink collects workload errors. They surface on whichever shard
// hits them first, so collection is mutex-guarded and the winner is
// re-picked deterministically — lowest (d, j) rank, then arrival — after
// the run. Single-loop workloads rank everything (0, 0) and get the
// first error in virtual time.
type errSink struct {
	mu   sync.Mutex
	errs []rankedErr
}

type rankedErr struct {
	d, j int
	err  error
}

func (s *errSink) fail(d, j int, err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	s.errs = append(s.errs, rankedErr{d, j, err})
	s.mu.Unlock()
}

func (s *errSink) first() error {
	if s == nil || len(s.errs) == 0 {
		return nil
	}
	first := s.errs[0]
	for _, e := range s.errs[1:] {
		if e.d < first.d || (e.d == first.d && e.j < first.j) {
			first = e
		}
	}
	return first.err
}

// runAndDrain runs the workload to completion, surfaces its first error
// (errs may be nil when the workload counts errors instead), then idles
// for drain — 2MSL, port quarantine, conntrack GC — so conservation
// laws read a quiescent network.
func (n *Network) runAndDrain(errs *errSink, drain time.Duration) error {
	if err := n.Run(); err != nil {
		return err
	}
	if err := errs.first(); err != nil {
		return err
	}
	return n.RunFor(drain)
}
