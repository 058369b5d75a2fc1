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
// woken with Unpark or by timers. A proc takes its coroutine when it
// first runs and gives it back when it exits.
//
// A foreground Proc (created with Spawn) keeps Sim.Run alive until it
// exits; a daemon Proc (SpawnDaemon, SpawnLoop) does not. Service loops
// such as protocol timers, receive threads and RPC workers are loop
// procs (SpawnLoop), which hold no coroutine while they wait.
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
	woke          bool   // see Woke
	co            *coro  // the coroutine running the body, while it does
	pendingResume *event // the event that will resume this proc, if any
	body          func(*Proc)
	loop          *loop // a loop proc's body and its wait; nil otherwise
}

// A Wait is the wait a loop proc's run ends in: WaitOn, Tick or Exit.
// The scheduler performs it.
type Wait struct {
	cond *Cond
	idle func() bool
	d    time.Duration // a Tick's sleep; -1 for Exit
}

// Exit ends a loop proc.
var Exit = Wait{d: -1}

// WaitOn waits until c chooses the proc, as Cond.Wait does.
func WaitOn(c *Cond) Wait { return Wait{cond: c} }

// Tick sleeps d, as Sleep does, except that a dispatched wake-up finding
// idle() true (idle may be nil) schedules the next one d later and leaves
// the proc parked, as `for { p.Sleep(d); if !idle() { body() } }` would
// run minus the run. idle runs on the scheduler's goroutine; it must not
// block, schedule or change state, and any state the body acts on must
// make it false. A wake-up run inline (see Sleep) runs the body anyway.
func Tick(d time.Duration, idle func() bool) Wait { return Wait{idle: idle, d: max(d, 0)} }

// loop is a loop proc's body and the wait its last run ended in.
type loop struct {
	body func(*Proc) Wait
	wait Wait
}

// A coro is a pooled coroutine that runs proc bodies one after another.
// The goroutine driving the proc switches to it with next, the proc
// switches back with yield, and between bodies it is idle in a Sim's
// cache or in coroPool, suspended in the yield that follows a body.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc
}

// coroPool is the process-wide free list of idle coroutines behind each
// Sim's cache (Sim.coros), which every run hands back when it returns.
// It is a Free behind a mutex, since every shard takes from it, and not
// a sync.Pool: a coroutine dropped from a pool is a parked goroutine
// that nothing can end. Only the goroutine that called next returns a
// coroutine, and only after next returned; a coroutine that returned
// itself could be resumed on another shard before it had switched away.
var coroPool struct {
	sync.Mutex
	free Free[coro]
}

// errClosed unwinds a live proc's body under Sim.Close.
var errClosed = errors.New("sim: closed")

// getCoro takes an idle coroutine from s's cache, or the pool, or makes
// one, for p.
func (s *Sim) getCoro(p *Proc) *coro {
	c := s.coros.Get()
	if c == nil {
		coroPool.Lock()
		c = coroPool.free.Get()
		coroPool.Unlock()
		if c == nil {
			c = new(coro)
			c.next, _ = iter.Pull(c.run)
		}
	}
	c.p = p
	return c
}

// handBack returns s's idle coroutines to the pool.
func (s *Sim) handBack() {
	coroPool.Lock()
	for c := s.coros.Get(); c != nil; c = s.coros.Get() {
		coroPool.free.Put(c)
	}
	coroPool.Unlock()
}

// run is the coroutine's whole life: one body, or one loop proc's run,
// per resumption. It captures nothing but c, so an idle coroutine holds
// no Sim.
func (c *coro) run(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.exec()
		c.p = nil
		yield(struct{}{})
	}
}

// exec runs the current body to its end, or a loop proc's run to the
// wait it parks in, and files an exit. A panic, or a runtime.Goexit
// (which iter.Pull re-raises on the resuming goroutine), becomes the
// sim's panicV, which the goroutine that resumed the proc re-raises.
// Under Close the body is being thrown away: whatever its unwinding
// raises (the sentinel, or cleanup written for a normal exit tripping
// over a lock it no longer holds) is dropped.
func (c *coro) exec() {
	p := c.p
	returned, parked := false, false
	defer func() {
		r := recover()
		switch {
		case p.sim.closed:
		case r != nil:
			p.sim.panicV = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
		case !returned:
			p.sim.panicV = fmt.Errorf("sim: process %q called runtime.Goexit", p.name)
		}
		if !parked {
			p.exit()
		}
	}()
	if p.loop != nil {
		parked = p.runLoop()
	} else {
		p.body(p)
	}
	returned = true
}

// runLoop runs a loop proc's body, again while the sleep it ends in runs
// inline (see Sleep), and performs the wait it returns as Cond.Wait or
// Sleep would. It reports whether the proc parked (not Exit).
func (p *Proc) runLoop() bool {
	s, l := p.sim, p.loop
	for {
		p.parked = false
		w := l.body(p)
		p.woke = true
		switch {
		case w.cond != nil:
			w.cond.push(p)
			p.unparkPending = false // Cond.Wait's first Park absorbs a stray token
			if s.tracer != nil {
				s.tracer.ProcPark(s.now, p.name)
			}
		case w.d < 0:
			return false
		case s.inline(s.now.Add(w.d), p):
			continue
		default:
			p.pendingResume = s.schedule(s.now.Add(w.d), nil, p)
		}
		l.wait = w
		p.parked = true
		return true
	}
}

// wake decides a dispatched wake-up of a proc holding no coroutine: an
// idle tick queues ev again, and a stray Unpark of a WaitOn parks the
// proc again, as Cond.Wait would; otherwise the proc takes a coroutine
// to run on. It reports whether the proc runs.
func (p *Proc) wake(ev *event) bool {
	s := p.sim
	if l := p.loop; l != nil {
		switch w := &l.wait; {
		case w.idle != nil && w.idle():
			s.idled++
			s.enqueue(ev, s.now.Add(w.d))
			return false
		case w.cond != nil && !p.signalled:
			p.pendingResume, p.unparkPending = nil, false // as Cond.Wait's next Park
			if s.tracer != nil {
				s.tracer.ProcPark(s.now, p.name)
			}
			s.recycle(ev)
			return false
		}
	}
	p.co = s.getCoro(p)
	return true
}

// Woke reports whether a loop proc's run follows a wait its body
// returned, rather than being the first.
func (p *Proc) Woke() bool { return p.woke }

// Spawn starts a foreground simulated process. The body begins executing
// at the current virtual time, after already-queued events at this instant.
func (s *Sim) Spawn(name string, body func(p *Proc)) *Proc {
	return s.start(&Proc{body: body}, name, false)
}

// SpawnDaemon starts a daemon simulated process; Run does not wait for it.
func (s *Sim) SpawnDaemon(name string, body func(p *Proc)) *Proc {
	return s.start(&Proc{body: body}, name, true)
}

// SpawnLoop starts a daemon that is a continuation, as Mach 3.0's blocked
// kernel threads are (Draves et al., SOSP 1991): its body runs from the
// top on each wake-up and returns the Wait its run ends in. Between runs
// the proc holds no coroutine; a run borrows one from the sim, keeping
// it while the body blocks inside the run (a lock, a CPU charge). A run
// is one turn of the loop the body stands for, wait last; the first run
// is the spawn's, and Woke tells it from the rest.
func (s *Sim) SpawnLoop(name string, body func(p *Proc) Wait) *Proc {
	lp := &struct {
		Proc
		loop
	}{loop: loop{body: body}}
	lp.Proc.loop = &lp.loop
	return s.start(&lp.Proc, name, true)
}

// start files p and queues its first run at the current instant.
func (s *Sim) start(p *Proc, name string, daemon bool) *Proc {
	p.sim, p.name, p.daemon = s, name, daemon
	if !daemon {
		s.fg++
		s.everFg = true
	}
	s.spawned++
	s.procs[p] = s.spawned
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

// switchTo runs p until it blocks, exits or ends a loop run, and in the
// last two cases puts its coroutine in the sim's cache.
func (p *Proc) switchTo() {
	c := p.co
	c.next()
	if c.p == nil {
		p.co = nil
		p.sim.coros.Put(c)
	}
}

// Close ends a finished run's live procs: the foreground ones blocked in
// their bodies above all. Memory needs no Close, since between runs only
// a proc blocked inside its body holds a coroutine. It detaches the
// tracer, then ends every live proc in spawn order: one holding no
// coroutine (never started, or a loop proc between runs) is filed as
// exited, and any other is resumed to unwind its body (deferred calls
// run; any attempt to block unwinds further; whatever they panic with is
// dropped with the world). Run fails after Close, and a second Close
// does nothing. Call it after every read of the run, never from inside
// one.
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
			if p.co == nil {
				p.exit()
			}
			for !p.exited {
				p.switchTo()
			}
		}
	}
	s.events, s.free = queue{}, Free[event]{}
	s.handBack()
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
	if s.inline(at, p) {
		return
	}
	p.pendingResume = s.schedule(at, nil, p)
	p.parked = true
	p.yieldToScheduler()
	p.parked = false
}

// inline runs p's wake-up at `at` in place when it is the next event
// anyway (wakeIsNext), advancing what dispatching it would advance.
func (s *Sim) inline(at Time, p *Proc) bool {
	if !s.wakeIsNext(at) {
		return false
	}
	s.seq++
	s.now = at
	s.dispatched++
	s.inlined++
	if s.tracer != nil {
		s.tracer.EventDispatch(at, p.name)
	}
	return true
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
