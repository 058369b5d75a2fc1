package kern

import (
	"fmt"

	"repro/internal/sim"
)

// Service is a synchronous RPC port in the style of Mach IPC, used for
// the proxy calls between protocol libraries and the operating-system
// server, and for the data-path RPCs of the server-based baseline.
// A call carries the work itself: the caller blocks until a server
// worker has run it.
type Service struct {
	queue        *sim.Chan[*call]
	free         sim.Free[call] // records whose callers have woken
	owner        *Process
	name         string
	workers, max int // spawned so far (they never retire), and the cap
}

// call is one RPC in flight. Records are reused, so each keeps its
// Cond's waiter arrays warm; a worker stops touching a record at
// Broadcast, and only the woken caller hands it back.
type call struct {
	run    func(worker *sim.Proc)
	done   bool
	doneCV sim.Cond
}

// NewService creates a service on the owner's host, served by up to
// `workers` daemon threads in the owner process. A worker is spawned
// when a call finds none parked: its start runs at the instant and in
// the order a parked worker's wakeup would, so the calls run exactly as
// on a pool spawned up front. Workers end when the owner exits.
func NewService(owner *Process, name string, workers int) *Service {
	s := &Service{queue: sim.NewChan[*call](), owner: owner, name: name, max: workers}
	owner.OnExit(func() { s.queue.Close() })
	return s
}

// serve is a worker's run: the calls queued, then a wait for the next,
// until the owner exits.
func (s *Service) serve(t *sim.Proc) sim.Wait {
	for {
		c, ok, w := s.queue.Poll()
		if !ok {
			return w
		}
		c.run(t)
		c.done = true
		c.doneCV.Broadcast()
	}
}

// Call performs a synchronous RPC: run executes on a server worker
// thread (blocking it for as long as run blocks) while t waits. The
// cost of the IPC itself is charged by the caller (libraries charge
// Profile.ProxyRPC for proxy calls; the server baseline's data-path
// costs are in its entry/exit components). A run bound once, rather
// than a closure built per call, makes the call allocation-free.
func (s *Service) Call(t *sim.Proc, run func(worker *sim.Proc)) {
	c := s.free.Get()
	if c == nil {
		c = new(call)
	}
	c.run = run
	if s.queue.Waiting() == 0 && s.workers < s.max {
		s.owner.GoDaemon(fmt.Sprintf("%s-worker%d", s.name, s.workers), s.serve)
		s.workers++
	}
	s.queue.Send(c)
	for !c.done {
		c.doneCV.Wait(t)
	}
	c.run, c.done = nil, false
	s.free.Put(c)
}
