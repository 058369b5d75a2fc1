package sim

import (
	"fmt"
	"runtime/debug"
	"time"
)

// Proc is a simulated thread of execution: a goroutine whose progress is
// interleaved with the event loop so that only one of them runs at a time.
// Procs block in virtual time with Sleep and Park, and are woken with
// Unpark or by timers.
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
	resume        chan struct{}
	pendingResume *event // the event that will resume this proc, if any

	idle   func() bool   // SleepIdle: a tick the scheduler answers alone
	period time.Duration // and the sleep it then schedules
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
	p := &Proc{sim: s, name: name, daemon: daemon, resume: make(chan struct{})}
	if !daemon {
		s.fg++
		s.everFg = true
	}
	s.procs[p] = struct{}{}
	go func() {
		<-p.resume // wait for the scheduler to start us
		defer func() {
			if r := recover(); r != nil {
				s.panicV = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
			}
			p.exited = true
			delete(s.procs, p)
			if !p.daemon {
				s.fg--
			}
			s.yield <- struct{}{}
		}()
		body(p)
	}()
	p.pendingResume = s.schedule(s.now, nil, p)
	return p
}

// Sim returns the simulator this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// yieldToScheduler hands control back and waits to be resumed.
func (p *Proc) yieldToScheduler() {
	p.sim.yield <- struct{}{}
	<-p.resume
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
// would run, minus the goroutine hand-off. idle runs on the scheduler's
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
