package sim

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"maps"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// Proc is a simulated thread of execution: a body running on a coroutine
// that the scheduler switches to directly, so that only one of them runs
// at a time. Procs block in virtual time with Sleep and Park, and are
// woken with Unpark or by timers.
//
// A foreground Proc (created with Spawn) keeps Sim.Run alive until it
// exits; a daemon Proc (SpawnDaemon) does not, and is the right choice for
// service loops such as protocol timers and receive threads.
type Proc struct {
	sim    *Sim
	name   string
	daemon bool

	// The flags sit together so that a Proc stays in the 64-byte size
	// class: every thread of every simulated host is one.
	parked        bool
	unparkPending bool // an Unpark arrived while the proc was running
	exited        bool
	signalled     bool   // Cond.Signal chose this proc (see Cond)
	co            *coro  // the coroutine running the body; nil once exited
	pendingResume *event // the event that will resume this proc, if any

	idle   func() bool   // SleepIdle: a tick the scheduler answers alone
	period time.Duration // and the sleep it then schedules
}

// A coro is a pooled coroutine that runs proc bodies one after another.
// The goroutine driving the proc switches to it with next, the proc
// switches back with yield, and between bodies it waits in coroPool,
// suspended in the yield that follows a finished body.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc
	body  func(*Proc)
}

// coroPool is the process-wide free list of idle coroutines. It is a
// Free behind a mutex, since procs of every shard take and return
// coroutines, and not a sync.Pool: a coroutine dropped from a pool is a
// parked goroutine that nothing can end. Only the goroutine that called
// next returns a coroutine, and only after next returned; a coroutine
// that returned itself could be resumed on another shard before it had
// switched away.
var coroPool struct {
	sync.Mutex
	free Free[coro]
}

// errClosed unwinds a live proc's body under Sim.Close.
var errClosed = errors.New("sim: closed")

// getCoro takes an idle coroutine (or makes one) and hands it p's body.
func getCoro(p *Proc, body func(*Proc)) *coro {
	coroPool.Lock()
	c := coroPool.free.Get()
	coroPool.Unlock()
	if c == nil {
		c = new(coro)
		c.next, _ = iter.Pull(c.run)
	}
	c.p, c.body = p, body
	return c
}

// release returns an idle coroutine, holding no proc, to the pool.
func (c *coro) release() {
	c.p, c.body = nil, nil
	coroPool.Lock()
	coroPool.free.Put(c)
	coroPool.Unlock()
}

// run is the coroutine's whole life: one body per resumption after a
// release. It captures nothing but c, so an idle coroutine holds no Sim.
func (c *coro) run(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.exec()
		yield(struct{}{})
	}
}

// exec runs the current body to its end and files the exit. A panic, or
// a runtime.Goexit (which iter.Pull re-raises on the resuming goroutine),
// becomes the sim's panicV, which the goroutine that resumed the proc
// re-raises. Under Close the body is being thrown away: whatever its
// unwinding raises (the sentinel, or cleanup written for a normal exit
// tripping over a lock it no longer holds) is dropped.
func (c *coro) exec() {
	p := c.p
	returned := false
	defer func() {
		r := recover()
		switch {
		case p.sim.closed:
		case r != nil:
			p.sim.panicV = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
		case !returned:
			p.sim.panicV = fmt.Errorf("sim: process %q called runtime.Goexit", p.name)
		}
		p.exit()
	}()
	c.body(p)
	returned = true
}

// Spawn starts a foreground simulated process. The body begins executing
// at the current virtual time, after already-queued events at this instant.
func (s *Sim) Spawn(name string, body func(p *Proc)) *Proc {
	return s.spawn(name, body, false)
}

// SpawnDaemon starts a daemon simulated process; Run does not wait for it.
func (s *Sim) SpawnDaemon(name string, body func(p *Proc)) *Proc {
	return s.spawn(name, body, true)
}

func (s *Sim) spawn(name string, body func(p *Proc), daemon bool) *Proc {
	p := &Proc{sim: s, name: name, daemon: daemon}
	if !daemon {
		s.fg++
		s.everFg = true
	}
	s.spawned++
	s.procs[p] = s.spawned
	p.co = getCoro(p, body)
	p.pendingResume = s.schedule(s.now, nil, p)
	return p
}

// exit files p as finished.
func (p *Proc) exit() {
	p.exited = true
	delete(p.sim.procs, p)
	if !p.daemon {
		p.sim.fg--
	}
}

// switchTo runs p until it blocks or exits, and returns an exited
// proc's coroutine to the pool.
func (p *Proc) switchTo() {
	c := p.co
	c.next()
	if p.exited {
		p.co = nil
		c.release()
	}
}

// Close ends a finished run. It detaches the tracer, then ends every live
// proc in spawn order and returns its coroutine to the pool: a proc never
// started is released, and a parked one is resumed to unwind its body
// (deferred calls run; any attempt to block unwinds further; whatever
// they panic with is dropped with the world). Run fails after Close, and
// a second Close does nothing. Call it after every read of the run,
// never from inside one.
func (s *Sim) Close() {
	if s.closed {
		return
	}
	s.tracer = nil
	s.closed = true
	s.stopped = true // wakeIsNext refuses, so every block yields and unwinds
	for len(s.procs) > 0 {
		bySpawn := func(a, b *Proc) int { return cmp.Compare(s.procs[a], s.procs[b]) }
		for _, p := range slices.SortedFunc(maps.Keys(s.procs), bySpawn) {
			if !p.parked { // never started: every started proc is parked here
				p.exit()
				p.co.release()
				p.co = nil
			}
			for !p.exited {
				p.switchTo()
			}
		}
	}
	s.events, s.free = queue{}, Free[event]{}
}

// Sim returns the simulator this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// yieldToScheduler switches back to the goroutine that resumed the proc
// and waits to be resumed; under Close it unwinds the body instead.
func (p *Proc) yieldToScheduler() {
	p.co.yield(struct{}{})
	if p.sim.closed {
		panic(errClosed)
	}
}

// Sleep suspends the process for d of virtual time; d <= 0 yields. A
// wake-up that is the next event anyway (Sim.wakeIsNext) runs inline, with
// no scheduler round trip, advancing what dispatching it would advance.
func (p *Proc) Sleep(d time.Duration) {
	s := p.sim
	at := s.now.Add(max(d, 0))
	if s.wakeIsNext(at) {
		s.seq++
		s.now = at
		s.dispatched++
		s.inlined++
		if s.tracer != nil {
			s.tracer.EventDispatch(at, p.name)
		}
		return
	}
	p.pendingResume = s.schedule(at, nil, p)
	p.parked = true
	p.yieldToScheduler()
	p.parked = false
}

// SleepIdle is Sleep(d) for a periodic proc whose loop body does nothing
// while idle() holds: a dispatched wake-up that finds idle() true
// schedules the next one d later and leaves the proc parked, exactly as
//
//	for { p.Sleep(d); if !idle() { body() } }
//
// would run, minus the coroutine switch. idle runs on the scheduler's
// goroutine; it must not block, schedule or change state, and any state
// the body acts on must make it false.
func (p *Proc) SleepIdle(d time.Duration, idle func() bool) {
	p.idle, p.period = idle, d
	p.Sleep(d)
	p.idle = nil
}

// YieldProc reschedules the process at the current instant: Sleep(0).
func (p *Proc) YieldProc() { p.Sleep(0) }

// Park blocks the process until another party calls Unpark. If an Unpark
// arrived since the last Park, it consumes that token and returns
// immediately (so wakeups are never lost).
func (p *Proc) Park() {
	if p.unparkPending {
		p.unparkPending = false
		return
	}
	if p.sim.tracer != nil {
		p.sim.tracer.ProcPark(p.sim.now, p.name)
	}
	p.parked = true
	p.yieldToScheduler()
	p.parked = false
}

// ParkTimeout parks for at most d. It reports whether the process was
// explicitly unparked (true) as opposed to timing out (false).
func (p *Proc) ParkTimeout(d time.Duration) bool {
	if p.unparkPending {
		p.unparkPending = false
		return true
	}
	timedOut := false
	t := p.sim.After(d, func() {
		timedOut = true
		p.Unpark()
	})
	p.Park()
	if !timedOut {
		t.Stop()
	}
	return !timedOut
}

// Unpark wakes a parked process, or banks a wakeup token if it is
// currently running. Unparking an exited process is a no-op. Multiple
// Unparks coalesce into a single token.
func (p *Proc) Unpark() {
	if p.exited {
		return
	}
	if p.sim.tracer != nil {
		p.sim.tracer.ProcUnpark(p.sim.now, p.name)
	}
	if !p.parked {
		p.unparkPending = true
		return
	}
	if p.pendingResume != nil {
		// Already scheduled to wake (e.g. racing with a timeout); the
		// earlier of the two wins, so just bank the token.
		p.unparkPending = true
		return
	}
	p.pendingResume = p.sim.schedule(p.sim.now, nil, p)
}
