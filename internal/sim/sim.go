// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives everything in this repository: simulated hosts, CPUs,
// network links, kernels, protocol stacks, and application processes all
// advance a shared virtual clock by scheduling events on a single Sim.
//
// Concurrency model: the scheduler executes exactly one event at a time.
// Simulated processes (Proc) run on coroutines (iter.Pull): dispatching a
// proc's wake-up switches directly to its coroutine, and the proc switches
// straight back when it blocks or exits, so logically the whole
// simulation is single-threaded and fully deterministic for a given seed.
// Simulation state may therefore be mutated freely from event callbacks
// and from running Procs without locking. Coroutines are pooled (a LIFO
// cache per Sim in front of a process-wide pool) and run one body after
// another. Daemons that mostly wait are continuations (Sim.SpawnLoop):
// the body runs from the top on each wake-up and returns its next wait,
// which the scheduler performs, so a waiting one holds no coroutine. A
// drained world is collected with or without Sim.Close, which matters
// only for ending procs blocked inside their bodies.
//
// One event loop: Sim.Run, Sim.RunUntil, Group.Run and Group.RunUntil
// all go through one driver, Group.drive, which applies one termination
// rule, and one inner loop, Sim.runTo. A standalone Sim is driven as a
// one-shard Group whose window is unbounded and which checks for
// foreground exit before every event rather than only at barriers.
// Which event is next, and whether it may run before the bound, is
// decided in Sim.next, and for a proc's own wake-up in Sim.wakeIsNext: a
// proc whose wake-up is next keeps running (an inline self-wake), and the
// clock, dispatch count and tracer advance as the scheduler would have.
// A loop proc's idle tick (Tick) is answered by the scheduler alone: it
// schedules the next tick and the proc stays parked.
// The event queue is a heap of instant runs (see queue), and At and
// After return their Timer by value: scheduling allocates nothing.
//
// A record the engine reuses comes from a Free, a LIFO list of idle
// single-writer records, and a queue it keeps (a Resource's waiters, a
// Cond's, a Chan's items, a kernel endpoint's packets) is a Ring, a FIFO
// sized by the deepest the queue has been.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to a duration since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// An event is a scheduled callback or process resumption. Events are
// pooled on the owning Sim's free list; gen counts reuses so that stale
// Timer handles (whose event has fired and been recycled) are detected
// instead of cancelling an unrelated event.
//
// The full ordering key is (at, band, origin, seq). Locally scheduled
// events are band 0 with origin 0, so for a standalone Sim the key
// degenerates to the classic (at, seq) FIFO tie-break. Cross-shard
// deliveries (see ScheduleRemote) are band 1, keyed by a stable origin
// id and a per-origin sequence number: the key is intrinsic to the
// message, never to which shard happened to carry it, which is what
// makes the merged order invariant under resharding. An event does not
// hold its key: the queue slot of its run does (see queue).
type event struct {
	next     *event // the next event of its run
	fn       func()
	proc     *Proc      // if non-nil, resume this process instead of calling fn
	rw       *resWaiter // if non-nil, a resource grant expiry (UseEvent)
	gen      uint64     // incremented each time the event is recycled
	queued   bool       // in the queue, not yet popped
	stopped  bool
	periodic bool // an Every timer's, queued again after each firing
}

// Timer is a handle to a scheduled event, returned by At, After, and
// Every: the event and its generation, by value, so taking one allocates
// nothing. A handle outliving its event is detected by the generation.
type Timer struct {
	ev  *event
	gen uint64 // ev's generation when the handle was issued
}

// Stop cancels the timer. For one-shot timers it reports whether the event
// had not yet fired; for recurring timers it always stops future firings
// and reports whether the timer was still live.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.stopped || !ev.queued && !ev.periodic {
		return false // already fired (and recycled) or already stopped
	}
	ev.stopped = true
	return true
}

// Sim is a discrete-event simulator instance.
type Sim struct {
	now     Time
	events  queue
	seq     uint64
	fg      int              // live foreground (non-daemon) processes
	everFg  bool             // whether any foreground process was ever spawned
	procs   map[*Proc]uint64 // live procs, each with its spawn number
	spawned uint64           // procs spawned so far
	stopped bool
	closed  bool // see Close
	panicV  any
	tracer  Tracer
	free    Free[event] // recycled events (the pool behind the queue)
	coros   Free[coro]  // idle coroutines, until the run returns (see coroPool)

	// Sharding state. A standalone Sim has group == nil and none of it
	// is touched on the hot path; it is driven as solo, a one-shard
	// Group made on its first run.
	solo       *Group
	group      *Group
	shardID    int
	outbox     []remoteMsg // cross-shard sends staged until the window barrier
	dispatched uint64      // events executed (per-shard accounting)
	inlined    uint64      // of those, proc wake-ups run inline (see wakeIsNext)
	idled      uint64      // of those, idle ticks that left their proc parked (Tick)
	origins    uint64      // local origin-id allocator when no group exists
	end        Time        // the active runTo's exclusive bound
	fgExit     bool        // and its foreground-exit rule

	// Deadline is the virtual time at which Run gives up and returns an
	// error. It guards against livelock (for example, protocol timers that
	// tick forever while a workload is wedged). The zero value means the
	// default of one virtual hour.
	Deadline Time

	seed  int64
	draws rand.Source // Draws' scratch source, reseeded per call
}

// New returns a simulator whose random streams derive from seed (see
// StreamSeed).
func New(seed int64) *Sim {
	return &Sim{
		procs: make(map[*Proc]uint64),
		seed:  seed,
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Tracer receives scheduler-level callbacks: one per dispatched event
// and one per explicit process park/unpark. Implementations must be
// passive — they may record but must not schedule events or advance
// time, or determinism is lost. The flight recorder (internal/trace)
// implements this.
type Tracer interface {
	EventDispatch(at Time, proc string)
	ProcPark(at Time, proc string)
	ProcUnpark(at Time, proc string)
}

// SetTracer installs t as the scheduler tracer (nil to disable). When no
// tracer is installed the hooks cost a single nil check.
func (s *Sim) SetTracer(t Tracer) { s.tracer = t }

// Seed returns the seed the simulator was created with. Components that
// need their own deterministic random streams (for example per-link
// fault injection) derive them from this.
func (s *Sim) Seed() int64 { return s.seed }

// StreamSeed mixes a simulation seed with a component name (FNV-1a over
// the name, then a splitmix64 finalizer) into an independent stream
// seed. It depends only on (seed, name) — never on creation order,
// traffic, or shard placement.
func StreamSeed(seed int64, name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	z := uint64(seed) ^ h
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Draws fills dst with the Int63 draws from..from+len(dst) of the
// math/rand source seeded with key (typically a StreamSeed), so a
// component that draws now and then owns a few words instead of a 5 KB
// source. The sim keeps one scratch source and reseeds it per call:
// shards never share one, and the values depend only on (key, from).
// Reaching draw `from` costs `from` draws, so a caller that refills a
// buffer doubles it each time.
func (s *Sim) Draws(key int64, from int, dst []int64) {
	if s.draws == nil {
		s.draws = rand.NewSource(key)
	} else {
		s.draws.Seed(key)
	}
	for range from {
		s.draws.Int63()
	}
	for i := range dst {
		dst[i] = s.draws.Int63()
	}
}

func (s *Sim) schedule(at Time, fn func(), p *Proc) *event {
	ev := s.newEvent(fn, p)
	s.enqueue(ev, max(at, s.now))
	return ev
}

// enqueue queues ev as a band-0 event at `at` with the next seq.
func (s *Sim) enqueue(ev *event, at Time) {
	s.seq++
	s.events.pushLocal(at, s.seq, ev)
}

// newEvent returns an unqueued event, reusing one from the free list when
// there is one.
func (s *Sim) newEvent(fn func(), p *Proc) *event {
	ev := s.free.Get()
	if ev == nil {
		ev = new(event)
	}
	ev.fn, ev.proc = fn, p
	return ev
}

// recycle returns a dispatched or cancelled event to the free list.
// Bumping gen invalidates any outstanding Timer handles to it.
func (s *Sim) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.proc, ev.rw = nil, nil, nil
	ev.stopped, ev.periodic = false, false
	s.free.Put(ev)
}

// ScheduleRemote inserts a band-1 delivery event keyed by (at, origin,
// oseq). It is how merged cross-shard messages enter a shard's queue: at
// equal times all local (band-0) events sort first, then deliveries in
// (origin, oseq) order. Keys are unique, so insertion order is
// irrelevant — which is what lets the barrier merge stay deterministic.
func (s *Sim) ScheduleRemote(at Time, origin, oseq uint64, fn func()) {
	if at < s.now {
		panic(fmt.Sprintf("sim: lookahead violation: remote delivery at %v but shard %d is already at %v", at, s.shardID, s.now))
	}
	s.events.pushRemote(at, origin, oseq, s.newEvent(fn, nil))
}

// remoteMsg is one staged cross-shard delivery awaiting the barrier.
type remoteMsg struct {
	dst    *Sim
	at     Time
	origin uint64
	oseq   uint64
	fn     func()
}

// SendRemote schedules fn at time `at` on dst with the band-1 key
// (origin, oseq). A same-sim send is inserted immediately (the queue
// handles any future time); a cross-shard send is staged in the sender's
// outbox and merged by the Group at the next window barrier. Both paths
// give the event the identical key, so the executed order does not
// depend on whether the two endpoints shared a shard.
func (s *Sim) SendRemote(dst *Sim, at Time, origin, oseq uint64, fn func()) {
	if dst == s {
		s.ScheduleRemote(at, origin, oseq, fn)
		return
	}
	if s.group == nil || dst.group != s.group {
		panic("sim: SendRemote between sims that do not share a Group")
	}
	s.outbox = append(s.outbox, remoteMsg{dst: dst, at: at, origin: origin, oseq: oseq, fn: fn})
}

// AllocOrigin hands out a stable band-1 origin id. Allocation follows
// topology construction order, which is identical across shard counts,
// so origins are reshard-invariant. Group shards share one allocator.
func (s *Sim) AllocOrigin() uint64 {
	if s.group != nil {
		return s.group.allocOrigin()
	}
	s.origins++
	return s.origins
}

// Group returns the shard group this sim belongs to, or nil for a
// standalone sim.
func (s *Sim) Group() *Group { return s.group }

// ShardID returns this sim's index within its Group (0 standalone).
func (s *Sim) ShardID() int { return s.shardID }

// Dispatched returns the number of events this sim has executed.
func (s *Sim) Dispatched() uint64 { return s.dispatched }

// Inlined returns how many dispatched events were inline proc wake-ups.
func (s *Sim) Inlined() uint64 { return s.inlined }

// Idled returns how many dispatched events were idle ticks (see Tick)
// that the scheduler answered without running the proc.
func (s *Sim) Idled() uint64 { return s.idled }

// Coroutines returns how many live procs hold a coroutine: those whose
// body is running or blocked inside a run, not loop procs between runs.
func (s *Sim) Coroutines() (n int) {
	for p := range s.procs {
		if p.co != nil {
			n++
		}
	}
	return n
}

// At schedules fn to run at virtual time t (or now, if t is in the past).
func (s *Sim) At(t Time, fn func()) Timer {
	ev := s.schedule(t, fn, nil)
	return Timer{ev, ev.gen}
}

// After schedules fn to run d after the current virtual time.
func (s *Sim) After(d time.Duration, fn func()) Timer {
	ev := s.schedule(s.now.Add(d), fn, nil)
	return Timer{ev, ev.gen}
}

// Every schedules fn to run every period, starting one period from now,
// until the returned Timer is stopped. The callback runs as a daemon: it
// does not keep Run alive. One event serves every firing: after fn it is
// queued again, with the next seq, unless fn stopped it.
func (s *Sim) Every(period time.Duration, fn func()) Timer {
	var ev *event
	ev = s.schedule(s.now.Add(period), func() {
		fn()
		if !ev.stopped {
			s.enqueue(ev, s.now.Add(period))
		}
	}, nil)
	ev.periodic = true
	return Timer{ev, ev.gen}
}

// Stop makes Run return after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events in virtual-time order until every foreground process
// has exited, Stop is called, or the event queue drains. It returns an
// error on deadlock (foreground processes parked with no pending events)
// or when the virtual Deadline is exceeded. Foreground exit is checked
// before every event, so Run stops on the event that ended the last
// foreground process.
func (s *Sim) Run() error {
	g, err := s.driver()
	if err != nil {
		return err
	}
	return g.drive(orHour(s.Deadline), true)
}

// RunFor advances the simulation by d, executing all events scheduled in
// [now, now+d]. Foreground completion does not stop it; it is intended for
// draining (for example TIME_WAIT expiry) and for tests.
func (s *Sim) RunFor(d time.Duration) error { return s.RunUntil(s.now.Add(d)) }

// RunUntil executes all events scheduled at or before t, and none after,
// and then sets the clock to t. It ignores Deadline.
func (s *Sim) RunUntil(t Time) error {
	g, err := s.driver()
	if err != nil {
		return err
	}
	return g.RunUntil(t)
}

// driver returns the one-shard Group a standalone sim is driven as.
func (s *Sim) driver() (*Group, error) {
	if s.group != nil {
		return nil, fmt.Errorf("sim: shard %d belongs to a Group; drive it with the Group", s.shardID)
	}
	if s.solo == nil {
		s.solo = &Group{shards: []*Sim{s}, seed: s.seed, SingleThreaded: true, standalone: true}
	}
	return s.solo, nil
}

// orHour reads a Deadline field: zero means one virtual hour.
func orHour(deadline Time) Time {
	if deadline == 0 {
		return Time(time.Hour)
	}
	return deadline
}

// peek returns the slot of the earliest live event without removing it,
// discarding cancelled events as it goes. Nil means the queue is empty.
func (s *Sim) peek() *slot {
	for len(s.events.slots) > 0 {
		if top := &s.events.slots[0]; !top.head.stopped {
			return top
		}
		s.recycle(s.events.pop())
	}
	return nil
}

// next decides which event runs next: the earliest live event in
// (at, band, origin, seq) order, removed from the queue with the clock
// set to its instant, if it lies before the exclusive bound end;
// otherwise nil, and nothing is removed. Only it, and wakeIsNext for a
// proc's own wake-up, make that decision.
func (s *Sim) next(end Time) *event {
	top := s.peek()
	if top == nil || top.at >= end {
		return nil
	}
	s.now = top.at
	return s.events.pop()
}

// wakeIsNext reports whether a proc wake-up keyed (at, 0, 0, seq+1) would
// be the next event the active runTo dispatches: at is before its bound,
// its rule holds, and no live event precedes (band 0 at `at` would).
func (s *Sim) wakeIsNext(at Time) bool {
	if at >= s.end || !s.dispatching() {
		return false
	}
	top := s.peek()
	return top == nil || top.at > at || top.at == at && top.key>>63 != 0
}

// dispatching is runTo's per-event rule (see runTo).
func (s *Sim) dispatching() bool {
	return !s.stopped && !(s.fgExit && s.everFg && s.fg == 0)
}

// runTo is the one inner loop: it dispatches events while next yields
// one before end, and stops early on Stop and, when fgExit is set (a
// standalone Run), as soon as no foreground process is left. A proc
// panic is re-raised on the goroutine running the loop.
func (s *Sim) runTo(end Time, fgExit bool) {
	s.end, s.fgExit = end, fgExit
	for s.dispatching() {
		ev := s.next(end)
		if ev == nil {
			return
		}
		s.dispatch(ev)
		if s.panicV != nil {
			panic(s.panicV)
		}
	}
}

func (s *Sim) dispatch(ev *event) {
	s.dispatched++
	if s.tracer != nil {
		name := ""
		if ev.proc != nil {
			name = ev.proc.name
		}
		s.tracer.EventDispatch(s.now, name)
	}
	switch {
	case ev.proc != nil:
		p := ev.proc
		if p.co == nil && !p.wake(ev) { // not running: it may stay parked
			return
		}
		p.pendingResume = nil
		p.switchTo()
	case ev.rw != nil:
		// Resource grant expired: run the continuation, then hand the
		// resource to the next waiter.
		w := ev.rw
		w.done()
		w.r.release(s)
		w.r.putWaiter(w)
	default:
		ev.fn()
		if ev.queued { // an Every timer's, queued again
			return
		}
	}
	s.recycle(ev)
}

// ParkedProcs lists the names of currently-parked processes (diagnostics).
func (s *Sim) ParkedProcs() []string { return parkedNames([]*Sim{s}) }

// parkedNames lists, sorted, the parked processes of every shard: the
// names a deadlock error reports.
func parkedNames(shards []*Sim) []string {
	var names []string
	for _, s := range shards {
		for p := range s.procs {
			if p.parked {
				names = append(names, p.name)
			}
		}
	}
	sort.Strings(names)
	return names
}
