package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// srvProgram adds server-shaped daemons to a loopProgram and a
// tickProgram: each waits on one of a few queues (a Cond, an item count
// and a closed flag) and, per item, runs seeded acts, some of which
// block (sleeps that may run inline, resource charges, the shared
// mutex), wake other procs (stray tokens) or queue items for another
// server. Seeded events queue items (Signal or Broadcast), close queues,
// and unpark every daemon now and then. Each daemon is written two ways:
// as a `for { wait; body }` loop on its own coroutine, and as a loop proc
// whose run ends in WaitOn or Tick.
type srvProgram struct {
	queues  int
	servers []loopServer
	pushes  []loopPush
	closes  []loopClose
	strays  time.Duration // period of the event that unparks every daemon
	end     Time          // the run stops here; then late daemons are spawned and the sim is closed
}

type loopServer struct {
	q     int
	start Time
	acts  []loopAct // kind 0 sleep, 1 yield, 2 park, 4 use, 5 unpark, 6 queue an item on arg, 7 hold the mutex across a sleep
}

type loopPush struct {
	at        Time
	q, n      int
	broadcast bool
}

type loopClose struct {
	at Time
	q  int
}

func genSrvProgram(r *rand.Rand) *srvProgram {
	when := func(max int) Time { return Time(time.Duration(r.Intn(max)) * loopQuantum) }
	sp := &srvProgram{queues: 1 + r.Intn(3), strays: time.Duration(3+r.Intn(15)) * loopQuantum}
	sp.end = when(500) + Time(100*loopQuantum)
	for k := 1 + r.Intn(5); k > 0; k-- {
		s := loopServer{q: r.Intn(sp.queues)}
		if r.Intn(3) == 0 {
			s.start = when(200) + 1
		}
		for a := r.Intn(6); a > 0; a-- {
			kinds := []int{0, 0, 1, 2, 4, 5, 6, 7}
			s.acts = append(s.acts, loopAct{kind: kinds[r.Intn(len(kinds))], d: time.Duration(r.Intn(8)) * loopQuantum, arg: r.Intn(8)})
		}
		sp.servers = append(sp.servers, s)
	}
	for k := r.Intn(40); k > 0; k-- {
		sp.pushes = append(sp.pushes, loopPush{when(600), r.Intn(sp.queues), 1 + r.Intn(3), r.Intn(2) == 0})
	}
	for k := r.Intn(2); k > 0; k-- {
		sp.closes = append(sp.closes, loopClose{when(700), r.Intn(sp.queues)})
	}
	return sp
}

// srvWorld is what one installation of a srvProgram shares.
type srvWorld struct {
	conds    []Cond
	items    []int
	closed   []bool
	mu       Mutex
	res      Resource
	daemons  []*Proc
	strays   int // stray Unparks of loop procs parked in WaitOn
	forwards int // items servers queued
}

// install builds the program on s, the servers as loop procs when loop
// is set. The stray event unparks every proc in the world's daemons.
func (sp *srvProgram) install(s *Sim, l *loopLog, loop bool) *srvWorld {
	rec := func(format string, a ...any) { l.add(s.Now(), fmt.Sprintf(format, a...)) }
	w := &srvWorld{conds: make([]Cond, sp.queues), items: make([]int, sp.queues), closed: make([]bool, sp.queues)}
	push := func(q int, broadcast bool) {
		if w.closed[q] {
			return
		}
		w.items[q]++
		if broadcast {
			w.conds[q].Broadcast()
		} else {
			w.conds[q].Signal()
		}
	}
	for _, e := range sp.pushes {
		s.At(e.at, func() {
			for range e.n {
				push(e.q, e.broadcast)
			}
		})
	}
	for _, c := range sp.closes {
		s.At(c.at, func() {
			w.closed[c.q] = true
			w.conds[c.q].Broadcast()
		})
	}
	s.Every(sp.strays, func() {
		for _, p := range w.daemons {
			if p == nil {
				continue
			}
			if p.loop != nil && p.co == nil && p.parked && p.loop.wait.cond != nil && !p.signalled && p.pendingResume == nil {
				w.strays++ // a loop proc between runs that must park again
			}
			p.Unpark()
		}
	})
	for i, sv := range sp.servers {
		item := func(p *Proc, waited bool) {
			w.items[sv.q]--
			rec("s%d item, woke %v, waiters %d", i, waited, w.conds[sv.q].Waiters())
			for _, a := range sv.acts {
				switch a.kind {
				case 0:
					p.Sleep(a.d)
				case 1:
					p.YieldProc()
				case 2:
					p.Park()
				case 4:
					w.res.Use(p, Priority(a.arg%2), a.d)
				case 5:
					if q := w.daemons[a.arg%len(w.daemons)]; q != nil {
						q.Unpark()
					}
				case 6:
					if w.forwards < 50 { // a server feeding its own queue must not spin for ever
						w.forwards++
						push(a.arg%sp.queues, a.arg%2 == 0)
					}
				case 7:
					w.mu.Lock(p)
					p.Sleep(a.d)
					w.mu.Unlock()
				}
			}
		}
		name := fmt.Sprintf("s%d", i)
		w.daemons = append(w.daemons, nil)
		spawn := func() {
			if loop {
				w.daemons[i] = s.SpawnLoop(name, func(p *Proc) Wait {
					for waited := p.Woke(); ; waited = false {
						if w.items[sv.q] == 0 {
							if w.closed[sv.q] {
								rec("s%d exits", i)
								return Exit
							}
							return WaitOn(&w.conds[sv.q])
						}
						item(p, waited)
					}
				})
				return
			}
			w.daemons[i] = s.SpawnDaemon(name, func(p *Proc) {
				waited := false
				for {
					for w.items[sv.q] == 0 && !w.closed[sv.q] {
						waited = true
						w.conds[sv.q].Wait(p)
					}
					if w.items[sv.q] == 0 {
						rec("s%d exits", i)
						return
					}
					item(p, waited)
					waited = false
				}
			})
		}
		if sv.start > 0 {
			s.At(sv.start, spawn)
		} else {
			spawn()
		}
	}
	return w
}

// loopState is what a run leaves that the two ways of writing its
// daemons must agree on, beyond the dispatch log.
type loopState struct {
	dispatched, inlined, idled uint64
	seq                        uint64
	now                        Time
	parked                     []string
	waiters                    []int
}

func stateOf(s *Sim, w *srvWorld) loopState {
	st := loopState{s.Dispatched(), s.Inlined(), s.Idled(), s.seq, s.Now(), s.ParkedProcs(), nil}
	for i := range w.conds {
		st.waiters = append(st.waiters, w.conds[i].Waiters())
	}
	return st
}

// TestLoopProcsAgree is the differential test of loop procs: seeded
// programs whose server daemons (and, at even seeds, ticker daemons) are
// loop procs (WaitOn, Tick) dispatch exactly as the same programs
// written as `for { wait; body }` loops, beside foreground procs and
// plain daemons, standalone and on a one-shard Group (serially, and on
// its worker goroutine in RunUntil steps). Both must agree on the
// dispatch log with every tracer park and unpark, on Dispatched, the seq
// counter, Inlined and Idled (without tickers), the parked procs and
// every Cond's Waiters, with stray Unparks banked and parked again, and
// sleeps that run inline. Then each sim is closed with
// loop procs parked between runs, blocked inside a run and never
// started: Close must end them all, the tracer seeing nothing, and leave
// no proc holding a coroutine. Between runs a loop proc holds none.
func TestLoopProcsAgree(t *testing.T) {
	var between, midRun, strayParks, inlined, idled int
	for seed := int64(1); seed <= 200; seed++ {
		pg := genLoopProgram(rand.New(rand.NewSource(seed)))
		tp := genTickProgram(rand.New(rand.NewSource(1000 + seed)))
		sp := genSrvProgram(rand.New(rand.NewSource(2000 + seed)))
		steps := loopSteps(rand.New(rand.NewSource(-seed)), sp.end)
		ticks := seed%2 == 0
		run := func(loop bool, mode int) ([]loopEntry, loopState) {
			l := &loopLog{t: t, bound: sp.end}
			var s *Sim
			var g *Group
			if mode == 0 {
				s = New(seed)
				s.Deadline = sp.end
			} else {
				g = NewGroup(seed, 1)
				g.SingleThreaded = mode == 1
				s = g.Shard(0)
			}
			s.SetTracer(l)
			pg.install(s, l)
			w := sp.install(s, l, loop)
			if ticks {
				w.daemons = append(w.daemons, tp.install(s, l, loop)...)
			}
			switch mode {
			case 0:
				runOK(t, s.Run())
				if err := s.RunUntil(sp.end); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := g.RunUntil(sp.end); err != nil {
					t.Fatal(err)
				}
			default:
				for _, b := range steps {
					l.bound = b
					if err := g.RunUntil(b); err != nil {
						t.Fatal(err)
					}
				}
			}
			st := stateOf(s, w)
			if ticks {
				// An idle tick's next wake-up can run inline in the Sleep
				// loop, never under Tick, which answers it without a run:
				// the two counts differ there by design.
				st.inlined, st.idled = 0, 0
			}
			if loop {
				strayParks += w.strays
				for p := range s.procs {
					if p.loop != nil && p.parked {
						if p.co == nil {
							between++
						} else {
							midRun++
						}
					}
				}
				inlined += int(s.Inlined())
				idled += int(s.Idled())
			}
			// Never started: spawned after the run, closed before it runs.
			s.SpawnLoop("late-loop", func(p *Proc) Wait { t.Error("a loop proc spawned after the run ran under Close"); return Exit })
			s.SpawnDaemon("late", func(p *Proc) { t.Error("a daemon spawned after the run ran under Close") })
			traced := len(l.entries)
			s.Close()
			if len(l.entries) != traced {
				t.Errorf("seed %d: the tracer saw %d records during Close", seed, len(l.entries)-traced)
			}
			if len(s.procs) != 0 || s.Coroutines() != 0 || len(s.coros.list) != 0 {
				t.Errorf("seed %d: after Close %d procs live, %d holding coroutines, %d cached", seed, len(s.procs), s.Coroutines(), len(s.coros.list))
			}
			return l.entries, st
		}
		for mode, name := range []string{"standalone", "Group, serial", "Group, worker threads in steps"} {
			want, wantSt := run(false, mode)
			got, gotSt := run(true, mode)
			if !reflect.DeepEqual(got, want) {
				i := firstDiff(got, want)
				t.Fatalf("seed %d (%s): loop procs diverge from loops at entry %d of %d/%d: %v vs %v",
					seed, name, i, len(got), len(want), entryAt(got, i), entryAt(want, i))
			}
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Fatalf("seed %d (%s): loop procs end in %+v, loops in %+v", seed, name, gotSt, wantSt)
			}
		}
	}
	// Every path must have been taken somewhere.
	for what, n := range map[string]int{"parked between runs at Close": between, "blocked inside a run at Close": midRun,
		"inline wake-ups": inlined, "idle ticks": idled, "stray wake-ups parked again": strayParks} {
		if n == 0 {
			t.Errorf("no %s over all seeds", what)
		}
	}
}

func entryAt(es []loopEntry, i int) any {
	if i < len(es) {
		return es[i]
	}
	return "end of log"
}

// TestLoopWakeAllocatesNothing: once its sim's coroutine cache is warm, a
// loop proc's wake-up, its run and the wait it ends in allocate nothing,
// for a WaitOn and for a Tick that is not idle, and a parked loop proc
// holds no coroutine.
func TestLoopWakeAllocatesNothing(t *testing.T) {
	s := New(1)
	var c Cond
	items, ticks := 0, 0
	srv := s.SpawnLoop("srv", func(p *Proc) Wait {
		for items > 0 {
			items--
			p.Sleep(1)
		}
		return WaitOn(&c)
	})
	s.SpawnLoop("tick", func(p *Proc) Wait {
		if p.Woke() {
			ticks++
		}
		return Tick(10, func() bool { return false })
	})
	signal := func() {
		items++
		c.Signal()
	}
	cycle := func() {
		s.After(5, signal)
		if err := s.RunFor(10); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a warm loop proc wake-up allocates %v per cycle, want 0", n)
	}
	if ticks < 100 || items != 0 || !srv.parked || srv.co != nil || s.Coroutines() != 0 {
		t.Errorf("%d ticks, %d items left, server parked %v holding %v, %d coroutines held; want 100 or more, 0, parked holding none, 0",
			ticks, items, srv.parked, srv.co != nil, s.Coroutines())
	}
	if got := slices.Sorted(slices.Values(s.ParkedProcs())); !reflect.DeepEqual(got, []string{"srv", "tick"}) {
		t.Errorf("parked %v, want both loop procs", got)
	}
}
