// Sharded simulation: a Group partitions one logical simulation across
// N shard Sims, each with its own event queue, clock, and (via Stream)
// PRNG streams, synchronized with a conservative synchronous-window
// algorithm.
//
// Every window the coordinator computes the horizon — the earliest
// pending event time across all shards — and lets each shard run
// independently up to horizon + lookahead, where lookahead is the
// smallest propagation delay of any cross-shard link (a trunk, see
// internal/simnet). A frame transmitted at time t arrives at t +
// propagation >= horizon + lookahead, i.e. at or after the window end,
// so no shard can receive a message for a time it has already passed:
// the classic conservative (YAWNS-style) guarantee. Cross-shard sends
// are staged in per-shard outboxes and merged at the barrier.
//
// Determinism is by construction, not by luck:
//
//   - Within a shard, events run in (at, band, origin, seq) order — the
//     same total order a single-queue run would use.
//   - Cross-shard deliveries carry intrinsic keys (at, origin id of the
//     transmitting link direction, per-direction seq). The key does not
//     mention shards at all, so changing the shard count — or running
//     the shards serially instead of on worker goroutines — cannot
//     change where a delivery sorts.
//   - Shards share no mutable state; they interact only through the
//     barrier exchange. Serial execution of the shards in id order is
//     therefore observably identical to parallel execution, which is
//     what SingleThreaded mode exists to prove (golden-equivalence
//     tests diff full traces and registry snapshots across the two).
package sim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// MinLookahead is the smallest propagation delay a cross-shard link may
// declare. Zero-latency links would force zero-width windows (no shard
// could ever run ahead), so link constructors clamp to this value and
// document the clamp rather than deadlock.
const MinLookahead = 10 * time.Microsecond

// DefaultMaxWindow caps the window width even when no cross-shard link
// bounds it (a group with fully shard-local traffic has infinite
// lookahead). The cap keeps fg-exit and Stop latency bounded: both are
// only observed at barriers. It is deliberately shard-count-invariant —
// window boundaries must not depend on topology placement.
const DefaultMaxWindow = time.Millisecond

// Group runs N shard Sims under one virtual clock.
type Group struct {
	shards []*Sim
	seed   int64

	// SingleThreaded makes Run execute shards serially in id order
	// instead of on worker goroutines. Results are identical — this is
	// the golden reference the determinism battery diffs against.
	SingleThreaded bool

	// Deadline bounds virtual time for Run (0 = one hour), mirroring
	// Sim.Deadline.
	Deadline Time

	// standalone marks a standalone Sim's own one-shard group: its
	// window is unbounded and Run checks foreground exit per event.
	standalone bool

	lookahead Time // min registered cross-shard propagation (0 = none yet)
	originSeq uint64
	running   bool
	windows   uint64
	stopReq   atomic.Bool // Stop requested; honored at the next barrier

	// Worker state, live only while a parallel Run/RunUntil is active.
	starts []chan Time
	done   chan int
}

// NewGroup creates n shard sims. Every shard carries the same seed —
// named Streams and per-link fault streams must not depend on which
// shard their owner landed on.
func NewGroup(seed int64, n int) *Group {
	if n < 1 {
		panic("sim: NewGroup needs at least one shard")
	}
	g := &Group{seed: seed, shards: make([]*Sim, n)}
	for i := range g.shards {
		s := New(seed)
		s.group = g
		s.shardID = i
		g.shards[i] = s
	}
	return g
}

// Seed returns the group seed (shared by every shard).
func (g *Group) Seed() int64 { return g.seed }

// NumShards returns the shard count.
func (g *Group) NumShards() int { return len(g.shards) }

// Shard returns shard i's sim. Components are placed on a shard by
// being constructed against its sim.
func (g *Group) Shard(i int) *Sim { return g.shards[i] }

// Shards returns all shard sims in id order.
func (g *Group) Shards() []*Sim { return g.shards }

// Windows returns how many synchronization windows have executed.
func (g *Group) Windows() uint64 { return g.windows }

// Dispatched returns the events executed on every shard together; each
// shard's own count is its Sim.Dispatched.
func (g *Group) Dispatched() (total uint64) {
	for _, s := range g.shards {
		total += s.dispatched
	}
	return total
}

// ObserveLookahead registers a cross-shard link's propagation delay,
// shrinking the window bound. Link constructors call this for EVERY
// trunk, even one whose endpoints happen to share a shard: the window
// schedule must be a function of the topology alone, never of the
// shard mapping, or reshard-invariance breaks. Delays below
// MinLookahead are clamped (the documented floor for zero-latency
// links).
func (g *Group) ObserveLookahead(prop time.Duration) time.Duration {
	if prop < MinLookahead {
		prop = MinLookahead
	}
	if g.lookahead == 0 || Time(prop) < g.lookahead {
		g.lookahead = Time(prop)
	}
	return prop
}

// Lookahead returns the current window bound from registered links
// (0 = none registered, windows are capped by DefaultMaxWindow alone).
func (g *Group) Lookahead() time.Duration { return g.lookahead.Duration() }

// allocOrigin hands out group-wide stable band-1 origin ids.
func (g *Group) allocOrigin() uint64 {
	g.originSeq++
	return g.originSeq
}

// Now returns the group clock: the furthest shard clock. Between
// barriers shard clocks differ by less than one window; RunUntil
// realigns them exactly.
func (g *Group) Now() Time {
	var t Time
	for _, s := range g.shards {
		if s.now > t {
			t = s.now
		}
	}
	return t
}

// Stop makes Run return at the next window barrier. It may be called
// from any shard's event context (the flag is atomic); other shards
// finish the current window first, keeping the window schedule — and so
// determinism — intact.
func (g *Group) Stop() { g.stopReq.Store(true) }

// Spawn starts a foreground process on shard 0 (convenience for
// group-agnostic drivers; placement-aware callers use Shard(i).Spawn).
func (g *Group) Spawn(name string, fn func(p *Proc)) *Proc {
	return g.shards[0].Spawn(name, fn)
}

func (g *Group) fgState() (everFg bool, fg int) {
	for _, s := range g.shards {
		everFg = everFg || s.everFg
		fg += s.fg
	}
	return everFg, fg
}

func (g *Group) anyStopped() bool {
	for _, s := range g.shards {
		if s.stopped {
			return true
		}
	}
	return false
}

func (g *Group) clearStopped() {
	for _, s := range g.shards {
		s.stopped = false
	}
}

// horizon returns the earliest pending event time across shards.
func (g *Group) horizon() (Time, bool) {
	var h Time
	ok := false
	for _, s := range g.shards {
		if top := s.peek(); top != nil && (!ok || top.at < h) {
			h, ok = top.at, true
		}
	}
	return h, ok
}

// windowEnd computes the exclusive end of the window opening at
// horizon. Events with at < end run this window; every cross-shard
// delivery generated inside it lands at >= horizon + propagation >=
// horizon + lookahead >= end, hence in a later window.
func (g *Group) windowEnd(horizon Time) Time {
	w := Time(DefaultMaxWindow)
	if g.lookahead != 0 && g.lookahead < w {
		w = g.lookahead
	}
	return horizon + w
}

// runShards executes one window of the inner loop on every shard,
// serially or on the worker goroutines, then merges the outboxes. Any
// shard panic is re-raised on the coordinator goroutine, lowest shard id
// first.
func (g *Group) runShards(end Time) {
	g.windows++
	if g.SingleThreaded {
		for _, s := range g.shards {
			s.runTo(end, false)
		}
	} else {
		for _, c := range g.starts {
			c <- end
		}
		for range g.shards {
			<-g.done
		}
		for _, s := range g.shards {
			if s.panicV != nil {
				panic(s.panicV)
			}
		}
	}
	g.exchange(end)
}

// exchange merges every shard's staged cross-shard sends into the
// destination queues. Delivery keys are unique and intrinsic, so the
// queue gives them their canonical position regardless of merge order;
// iterating shards in id order just keeps the merge allocation-stable.
func (g *Group) exchange(end Time) {
	for _, src := range g.shards {
		for i := range src.outbox {
			m := &src.outbox[i]
			if m.at < end {
				panic(fmt.Sprintf("sim: conservative lookahead violated: delivery at %v inside window ending %v", m.at, end))
			}
			m.dst.ScheduleRemote(m.at, m.origin, m.oseq, m.fn)
			*m = remoteMsg{}
		}
		src.outbox = src.outbox[:0]
	}
}

// startWorkers launches one goroutine per shard for a parallel run;
// stopWorkers tears them down when the run returns. Worker lifetime is
// bounded by the Run call so an abandoned Group leaks nothing.
func (g *Group) startWorkers() {
	g.starts = make([]chan Time, len(g.shards))
	g.done = make(chan int, len(g.shards))
	for i, s := range g.shards {
		c := make(chan Time)
		g.starts[i] = c
		go func(s *Sim, c chan Time) {
			for end := range c {
				g.runWindow(s, end)
			}
		}(s, c)
	}
}

// runWindow runs one shard's window on its worker and reports done even
// when the worker dies: a proc body's runtime.Goexit reaches the worker
// through the coroutine, after coro.exec has filed it as the shard's
// panicV, which the coordinator then raises.
func (g *Group) runWindow(s *Sim, end Time) {
	defer func() {
		if r := recover(); r != nil && s.panicV == nil {
			s.panicV = r
		}
		g.done <- s.shardID
	}()
	s.runTo(end, false)
}

func (g *Group) stopWorkers() {
	for _, c := range g.starts {
		close(c)
	}
	g.starts, g.done = nil, nil
}

// Run executes windows until every foreground process has exited, Stop
// is called, or the queues drain — Group.Run is to a sharded simulation
// what Sim.Run is to a standalone one. Termination, deadlock, and
// deadline are only evaluated at barriers, so runs may execute up to
// one window of daemon events past the last foreground exit; the window
// schedule is shard-count-invariant, so this overshoot is too.
func (g *Group) Run() error { return g.drive(orHour(g.Deadline), true) }

// RunFor advances the group clock by d (see Sim.RunFor).
func (g *Group) RunFor(d time.Duration) error { return g.RunUntil(g.Now().Add(d)) }

// RunUntil executes all events at or before t, then aligns every shard
// clock to t. Like Sim.RunUntil, it ignores Deadline.
func (g *Group) RunUntil(t Time) error {
	if err := g.drive(t, false); err != nil {
		return err
	}
	for _, s := range g.shards {
		if s.now < t {
			s.now = t
		}
	}
	return nil
}

// drive is the one driver of Run and RunUntil, for a Group and for a
// standalone Sim's one-shard group. Before every window it applies the
// one termination rule: stop on Stop; for a run, finish once every
// foreground process has exited and fail on deadlock; and once the next
// event lies past bound, fail for a run (bound is its deadline) or
// finish for a RunUntil. Events at exactly bound still run.
func (g *Group) drive(bound Time, run bool) error {
	if g.running {
		return fmt.Errorf("sim: run called reentrantly")
	}
	for _, s := range g.shards {
		if s.closed {
			return fmt.Errorf("sim: shard %d was closed", s.shardID)
		}
	}
	g.running = true
	defer func() {
		g.running = false
		for _, s := range g.shards {
			s.handBack()
		}
	}()
	g.clearStopped()
	g.stopReq.Store(false)
	if !g.SingleThreaded {
		g.startWorkers()
		defer g.stopWorkers()
	}
	for !g.stopReq.Load() && !g.anyStopped() {
		everFg, fg := g.fgState()
		if run && everFg && fg == 0 {
			return nil
		}
		horizon, ok := g.horizon()
		if !ok {
			if run && fg > 0 {
				return fmt.Errorf("sim: deadlock at %v: %d foreground process(es) parked with no pending events: %v",
					g.Now(), fg, parkedNames(g.shards))
			}
			return nil
		}
		if horizon > bound {
			if run {
				return fmt.Errorf("sim: virtual deadline %v exceeded (now %v, fg=%d)", bound, horizon, fg)
			}
			return nil
		}
		if g.standalone {
			g.shards[0].runTo(bound+1, run)
		} else {
			g.runShards(min(bound+1, g.windowEnd(horizon)))
		}
	}
	return nil
}
