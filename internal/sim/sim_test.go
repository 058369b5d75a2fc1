package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(3*time.Millisecond, func() { got = append(got, 3) })
	s.After(1*time.Millisecond, func() { got = append(got, 1) })
	s.After(2*time.Millisecond, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != Time(3*time.Millisecond) {
		t.Fatalf("now = %v, want 3ms", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Millisecond, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestEvery(t *testing.T) {
	s := New(1)
	n := 0
	var tick Timer
	tick = s.Every(10*time.Millisecond, func() {
		n++
		if n == 5 {
			tick.Stop()
		}
	})
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("ticks = %d, want 5", n)
	}
}

func TestProcSleep(t *testing.T) {
	s := New(1)
	var wake Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Millisecond)
		wake = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != Time(42*time.Millisecond) {
		t.Fatalf("woke at %v, want 42ms", wake)
	}
}

func TestProcParkUnpark(t *testing.T) {
	s := New(1)
	var order []string
	var sleeper *Proc
	sleeper = s.Spawn("parker", func(p *Proc) {
		order = append(order, "parking")
		p.Park()
		order = append(order, "woken")
	})
	s.After(5*time.Millisecond, func() {
		order = append(order, "unpark")
		sleeper.Unpark()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"parking", "unpark", "woken"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestUnparkBeforePark(t *testing.T) {
	s := New(1)
	done := false
	s.Spawn("p", func(p *Proc) {
		p.Unpark() // bank a token against ourselves
		p.Park()   // must consume it and not block
		done = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("banked unpark token lost")
	}
}

func TestParkTimeout(t *testing.T) {
	s := New(1)
	var gotOK bool
	var at Time
	s.Spawn("p", func(p *Proc) {
		gotOK = p.ParkTimeout(7 * time.Millisecond)
		at = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if gotOK {
		t.Fatal("ParkTimeout reported unparked on timeout")
	}
	if at != Time(7*time.Millisecond) {
		t.Fatalf("timed out at %v, want 7ms", at)
	}
}

func TestParkTimeoutUnparked(t *testing.T) {
	s := New(1)
	var gotOK bool
	var pr *Proc
	pr = s.Spawn("p", func(p *Proc) {
		gotOK = p.ParkTimeout(time.Second)
	})
	s.After(time.Millisecond, func() { pr.Unpark() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotOK {
		t.Fatal("explicit unpark reported as timeout")
	}
	if s.Now() != Time(time.Millisecond) {
		t.Fatalf("finished at %v, want 1ms", s.Now())
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New(1)
	s.Spawn("stuck", func(p *Proc) { p.Park() })
	if err := s.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestDeadline(t *testing.T) {
	s := New(1)
	s.Deadline = Time(time.Second)
	s.Every(time.Millisecond, func() {}) // ticks forever
	s.Spawn("stuck", func(p *Proc) { p.Park() })
	if err := s.Run(); err == nil {
		t.Fatal("expected deadline error")
	}
}

func TestCondSignalWakesInFIFO(t *testing.T) {
	s := New(1)
	var c Cond
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	s.After(time.Millisecond, func() { c.Signal() })
	s.After(2*time.Millisecond, func() { c.Signal() })
	s.After(3*time.Millisecond, func() { c.Signal() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestCondBroadcast(t *testing.T) {
	s := New(1)
	var c Cond
	n := 0
	for i := 0; i < 4; i++ {
		s.Spawn("w", func(p *Proc) {
			c.Wait(p)
			n++
		})
	}
	s.After(time.Millisecond, func() { c.Broadcast() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("woken = %d, want 4", n)
	}
}

func TestCondWaitAbsorbsStrayToken(t *testing.T) {
	s := New(1)
	var c Cond
	woken := false
	var pr *Proc
	pr = s.Spawn("w", func(p *Proc) {
		p.Unpark() // stray token banked before the wait
		c.Wait(p)
		woken = true
	})
	_ = pr
	s.After(time.Millisecond, func() {
		if woken {
			t.Error("Wait returned on a stray token instead of a signal")
		}
		c.Signal()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Fatal("never woke")
	}
}

func TestCondWaitTimeout(t *testing.T) {
	s := New(1)
	var c Cond
	var ok bool
	s.Spawn("w", func(p *Proc) {
		ok = c.WaitTimeout(p, 5*time.Millisecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("WaitTimeout reported signal on timeout")
	}
	if c.Waiters() != 0 {
		t.Fatal("timed-out waiter left on queue")
	}
}

// TestCondWaitAllocatesNothing: a wait needs no record of its own, so a
// Wait/Signal cycle allocates nothing, on a Cond never waited on before
// (one waiter, held inline) or on a warm one with three waiters queued.
func TestCondWaitAllocatesNothing(t *testing.T) {
	s := New(1)
	defer s.Close()
	fresh := make([]Cond, 256)
	s.Spawn("fresh", func(p *Proc) {
		for i := range fresh {
			fresh[i].Wait(p)
		}
	})
	var warm Cond
	for _, name := range []string{"a", "b", "c"} {
		s.Spawn(name, func(p *Proc) {
			for {
				warm.Wait(p)
			}
		})
	}
	if err := s.RunFor(0); err != nil {
		t.Fatal(err)
	}
	next := 0
	if n := testing.AllocsPerRun(100, func() {
		fresh[next].Signal()
		next++
		_ = s.RunFor(0)
	}); n != 0 {
		t.Errorf("Wait/Signal on a fresh Cond allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		warm.Signal()
		warm.Signal()
		warm.Signal()
		_ = s.RunFor(0)
	}); n != 0 {
		t.Errorf("Wait/Signal with three waiters allocates %v times, want 0", n)
	}
	if got := fresh[next].Waiters() + warm.Waiters(); got != 4 {
		t.Fatalf("%d waiters after the cycles, want 4", got)
	}
}

// TestCondWaitTimeoutKeepsOrder: a waiter that times out leaves the queue
// from wherever it sits, inline slot or slice, and the rest keep their
// order; a Signal at the deadline instant still counts as a signal.
func TestCondWaitTimeoutKeepsOrder(t *testing.T) {
	s := New(1)
	var c Cond
	var got []string
	wait := func(name string, d time.Duration) {
		s.Spawn(name, func(p *Proc) {
			got = append(got, fmt.Sprintf("%s:%v@%v", name, c.WaitTimeout(p, d), p.Now()))
		})
	}
	wait("a", 2*time.Millisecond) // inline slot
	wait("b", time.Millisecond)   // slice, times out first
	wait("c", time.Hour)
	var waiters []int
	for _, at := range []time.Duration{0, 1500 * time.Microsecond, 2500 * time.Microsecond} {
		s.After(at, func() { waiters = append(waiters, c.Waiters()) })
	}
	s.After(3*time.Millisecond, c.Signal)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[b:false@1ms a:false@2ms c:true@3ms] [3 2 1 0]"
	if g := fmt.Sprint(got, " ", append(waiters, c.Waiters())); g != want {
		t.Fatalf("got %s, want %s", g, want)
	}

	// The signal lands at the deadline, before and after the timer.
	for _, signalFirst := range []bool{true, false} {
		s := New(1)
		var c Cond
		var ok bool
		if signalFirst {
			s.After(5*time.Millisecond, c.Signal)
		}
		s.Spawn("w", func(p *Proc) { ok = c.WaitTimeout(p, 5*time.Millisecond) })
		if !signalFirst {
			s.Spawn("s", func(p *Proc) {
				p.Sleep(5 * time.Millisecond)
				c.Signal()
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if !ok || c.Waiters() != 0 {
			t.Fatalf("signal first %v: WaitTimeout = %v with %d queued, want true with none", signalFirst, ok, c.Waiters())
		}
	}
}

func TestChanFIFOAndBlocking(t *testing.T) {
	s := New(1)
	q := NewChan[int]()
	var got []int
	var at []Time
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			q.Send(i)
		}
		q.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := q.Recv(p) // must block until the next send
			if !ok {
				return
			}
			got = append(got, v)
			at = append(at, p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("received %d items, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
		if want := Time(time.Duration(i+1) * time.Millisecond); at[i] != want {
			t.Fatalf("item %d received at %v, want %v (its send)", i, at[i], want)
		}
	}
}

func TestResourceSerializes(t *testing.T) {
	s := New(1)
	var cpu Resource
	var ends []Time
	for i := 0; i < 3; i++ {
		s.Spawn("user", func(p *Proc) {
			cpu.Use(p, TaskPriority, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if cpu.BusyTime() != 30*time.Millisecond {
		t.Fatalf("busy = %v", cpu.BusyTime())
	}
}

func TestResourceInterruptPriority(t *testing.T) {
	s := New(1)
	var cpu Resource
	var order []string
	s.Spawn("t1", func(p *Proc) {
		cpu.Use(p, TaskPriority, 10*time.Millisecond)
		order = append(order, "t1")
	})
	s.Spawn("t2", func(p *Proc) {
		p.Sleep(time.Millisecond)
		cpu.Use(p, TaskPriority, 10*time.Millisecond)
		order = append(order, "t2")
	})
	s.After(2*time.Millisecond, func() {
		cpu.UseEvent(s, IntrPriority, time.Millisecond, func() {
			order = append(order, "intr")
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"t1", "intr", "t2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestWaitGroup(t *testing.T) {
	s := New(1)
	var wg WaitGroup
	wg.Add(3)
	done := false
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Millisecond
		s.Spawn("w", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	s.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		done = true
		if p.Now() != Time(3*time.Millisecond) {
			t.Errorf("wait finished at %v", p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("Wait never returned")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(7)
		rng := rand.New(rand.NewSource(7))
		var cpu Resource
		var trace []Time
		for i := 0; i < 8; i++ {
			s.Spawn("w", func(p *Proc) {
				d := time.Duration(rng.Intn(1000)) * time.Microsecond
				p.Sleep(d)
				cpu.Use(p, TaskPriority, 100*time.Microsecond)
				trace = append(trace, p.Now())
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	s := New(1)
	s.Spawn("boom", func(p *Proc) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Fatal("panic in proc not propagated")
		}
	}()
	_ = s.Run()
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	if err := s.RunUntil(Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if s.Now() != Time(time.Second) {
		t.Fatalf("now = %v", s.Now())
	}
}

// TestRunUntilStopsAtBound: a cancelled event before the bound must not
// carry RunUntil on to a live event after it.
func TestRunUntilStopsAtBound(t *testing.T) {
	s := New(1)
	s.At(10, func() {}).Stop()
	var ran []Time
	s.At(20, func() { ran = append(ran, s.Now()) })
	if err := s.RunUntil(15); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 0 || s.Now() != 15 {
		t.Fatalf("RunUntil(15) ran %v and left the clock at %v", ran, s.Now())
	}
	if err := s.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != 20 {
		t.Fatalf("RunUntil(20) ran %v, want the event at 20", ran)
	}
}

// TestSelfWake pins when a proc's wake-up runs inline, with no scheduler
// round trip, and when it is left to the scheduler: each case's inline
// and dispatched counts and the clock it ends at.
func TestSelfWake(t *testing.T) {
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	sleeper := func(s *Sim, d time.Duration) *Sim {
		s.Spawn("p", func(p *Proc) { p.Sleep(d) })
		return s
	}
	cases := []struct {
		name                string
		run                 func() *Sim
		inlined, dispatched uint64
		now                 Time
	}{
		{"idle Resource.Use runs inline", func() *Sim {
			s := New(1)
			var cpu Resource
			s.Spawn("p", func(p *Proc) { cpu.Use(p, TaskPriority, 5) })
			must(s.Run())
			return s
		}, 1, 2, 5},
		{"a tie with a band-0 event is dispatched after it", func() *Sim {
			s := New(1)
			fired := false
			s.At(5, func() { fired = true })
			s.Spawn("p", func(p *Proc) {
				p.Sleep(5)
				if !fired {
					t.Error("the wake-up overtook an earlier event at its instant")
				}
			})
			must(s.Run())
			return s
		}, 0, 3, 5},
		{"a tie with a band-1 delivery runs inline", func() *Sim {
			s := New(1)
			delivered := false
			s.ScheduleRemote(5, 1, 1, func() { delivered = true })
			s.Spawn("p", func(p *Proc) {
				p.Sleep(5)
				if delivered {
					t.Error("a remote delivery at the wake-up's instant ran first")
				}
			})
			must(s.RunUntil(5))
			return s
		}, 1, 3, 5},
		{"a wake-up inside the Group window runs inline", func() *Sim {
			g := NewGroup(1, 1)
			sleeper(g.Shard(0), DefaultMaxWindow-1)
			must(g.Run())
			return g.Shard(0)
		}, 1, 2, Time(DefaultMaxWindow - 1)},
		{"a wake-up at the Group window end is dispatched", func() *Sim {
			g := NewGroup(1, 1)
			sleeper(g.Shard(0), DefaultMaxWindow)
			must(g.Run())
			return g.Shard(0)
		}, 0, 2, Time(DefaultMaxWindow)},
		{"a wake-up at the RunUntil bound runs inline", func() *Sim {
			s := sleeper(New(1), 5)
			must(s.RunUntil(5))
			return s
		}, 1, 2, 5},
		{"a wake-up past the RunUntil bound waits; the clock lands on the bound", func() *Sim {
			s := sleeper(New(1), 5)
			must(s.RunUntil(4))
			return s
		}, 0, 1, 4},
		{"after Stop the wake-up is left to the scheduler", func() *Sim {
			s := New(1)
			s.Spawn("p", func(p *Proc) {
				s.Stop()
				p.Sleep(5)
			})
			must(s.Run())
			return s
		}, 0, 1, 0},
		{"a daemon's wake-up past the last foreground exit is left to the scheduler", func() *Sim {
			s := sleeper(New(1), 10)
			s.SpawnDaemon("d", func(p *Proc) {
				for {
					p.Sleep(3) // 3, 6 and 9 inline; 12 waits and never runs
				}
			})
			must(s.Run())
			return s
		}, 3, 6, 10},
	}
	for _, c := range cases {
		s := c.run()
		if s.Inlined() != c.inlined || s.Dispatched() != c.dispatched || s.Now() != c.now {
			t.Errorf("%s: %d inline of %d dispatched, clock %v; want %d of %d, %v",
				c.name, s.Inlined(), s.Dispatched(), s.Now(), c.inlined, c.dispatched, c.now)
		}
	}
}

// TestEventQueueOrder checks the queue of instant runs against a model:
// a set of live keys. Random steps schedule local events (often in
// same-instant bursts, so runs grow past one event, and on a few nearby
// instants in turn, so one instant holds several runs), insert band-1
// deliveries (with origins and sequence numbers near the top of the slot
// key's fields) at instants that may already hold a run, stop timers
// anywhere in a run, and pop, some pops scheduling again at the instant
// being popped. Every pop must be the model's least live key and every
// Stop must report what the model says. It fails if a schedule appends
// to a run that is not its instant's latest, if a delivery joins a run,
// or if a slot is re-keyed when its head pops as if the rest of its run
// were scheduled anew.
func TestEventQueueOrder(t *testing.T) {
	type key struct {
		at          Time
		band        uint8
		origin, seq uint64
	}
	less := func(a, b key) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.band != b.band {
			return a.band < b.band
		}
		if a.origin != b.origin {
			return a.origin < b.origin
		}
		return a.seq < b.seq
	}
	// runPos reports where ev sits in its run: 0 head, 1 middle, 2 tail,
	// 3 a run of one, -1 not queued.
	runPos := func(s *Sim, ev *event) int {
		for i := range s.events.slots {
			for e, pos := s.events.slots[i].head, 0; e != nil; e, pos = e.next, pos+1 {
				if e != ev {
					continue
				}
				switch {
				case pos == 0 && e.next == nil:
					return 3
				case pos == 0:
					return 0
				case e.next == nil:
					return 2
				}
				return 1
			}
		}
		return -1
	}
	var stops [4]int
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := New(seed)
		live := map[key]bool{}
		var popped key
		type handle struct {
			tm Timer
			k  key
		}
		var handles []handle
		oseq := uint64(1<<40 - 1<<20) // near the top of the slot key's field
		instant := func() Time { return s.now + Time(r.Intn(6)) }
		local := func(at Time) {
			var k key
			tm := s.At(at, func() { popped = k })
			k = key{at, 0, 0, s.seq}
			live[k] = true
			handles = append(handles, handle{tm, k})
		}
		for step := 0; step < 3000; step++ {
			switch op := r.Intn(12); {
			case op < 5:
				at := instant()
				for n := 1 + r.Intn(4); n > 0; n-- {
					local(at)
				}
			case op < 7:
				oseq++
				k := key{instant(), 1, []uint64{1, 2, 1<<23 - 1}[r.Intn(3)], oseq}
				s.ScheduleRemote(k.at, k.origin, k.seq, func() { popped = k })
				live[k] = true
			case op < 8 && len(handles) > 0:
				h := handles[r.Intn(len(handles))]
				if live[h.k] {
					stops[runPos(s, h.tm.ev)]++
				}
				if got := h.tm.Stop(); got != live[h.k] {
					t.Fatalf("seed %d step %d: Stop = %v, model says live %v", seed, step, got, live[h.k])
				}
				delete(live, h.k)
			default:
				ev := s.next(Time(1 << 62))
				if ev == nil {
					if len(live) != 0 {
						t.Fatalf("seed %d step %d: queue empty with %d live events", seed, step, len(live))
					}
					continue
				}
				ev.fn()
				k := popped
				if !live[k] || s.now != k.at {
					t.Fatalf("seed %d step %d: popped %+v at %v, which is not live", seed, step, k, s.now)
				}
				for o := range live {
					if less(o, k) {
						t.Fatalf("seed %d step %d: popped %+v before live %+v", seed, step, k, o)
					}
				}
				delete(live, k)
				if r.Intn(3) == 0 {
					local(s.now) // as a callback scheduling at its own instant
				}
				s.recycle(ev)
			}
		}
	}
	if stops[0] == 0 || stops[1] == 0 || stops[2] == 0 {
		t.Fatalf("stops by run position (head, middle, tail, alone) = %v: every position must be hit", stops)
	}
}

// TestSchedulingAllocatesNothing pins the value handles: on a warm queue,
// At, After and Stop allocate nothing.
func TestSchedulingAllocatesNothing(t *testing.T) {
	s := New(1)
	fn := func() {}
	cycle := func() {
		a := s.At(s.now+3, fn)
		b := s.After(5, fn)
		s.After(5, fn)
		a.Stop()
		b.Stop()
		if err := s.RunFor(10); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("At, After and Stop allocate %v per cycle, want 0", n)
	}
}

// TestProcFitsSizeClass pins a Proc at 64 bytes on 64-bit platforms: one
// is allocated per simulated thread, and the next size class is 80.
func TestProcFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Proc{}); unsafe.Sizeof(uintptr(0)) == 8 && n > 64 {
		t.Fatalf("Proc is %d bytes, want at most 64", n)
	}
}
