package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// loopEntry is one line of a dispatch log: what happened, and when.
type loopEntry struct {
	at    Time
	label string
}

// loopLog records a run's dispatch log and checks every entry against
// the bound of the Run or RunUntil call that was active when it ran.
type loopLog struct {
	t       *testing.T
	bound   Time
	entries []loopEntry
}

func (l *loopLog) add(at Time, label string) {
	if at > l.bound {
		l.t.Errorf("%q ran at %v, past the active bound %v", label, at, l.bound)
	}
	l.entries = append(l.entries, loopEntry{at, label})
}

func (l *loopLog) EventDispatch(at Time, proc string) { l.add(at, "dispatch "+proc) }
func (l *loopLog) ProcPark(at Time, proc string)      { l.add(at, "park "+proc) }
func (l *loopLog) ProcUnpark(at Time, proc string)    { l.add(at, "unpark "+proc) }

// loopProgram is a seeded random mix of everything the scheduler
// dispatches: one-shot timers (some stopped before or after they are
// due), recurring timers, event-context resource charges, and foreground
// and daemon procs that sleep, yield, park, park with a timeout, unpark
// each other and share two resources. Install builds the same program on
// any sim, so runs can be compared.
type loopProgram struct {
	timers []loopTimer
	everys []loopEvery
	procs  []loopProc
}

type loopTimer struct {
	at, stopAt Time // stopAt 0: never stopped; -1: stopped at once
	res        int  // >= 0: UseEvent on that resource for d
	d          time.Duration
	unpark     int // >= 0: unpark that proc
	after      bool
}

type loopEvery struct {
	period time.Duration
	ticks  int // the timer stops itself after this many ticks
}

type loopProc struct {
	start  Time // > 0: spawned by an event at start
	daemon bool // daemons repeat their actions for ever
	acts   []loopAct
}

type loopAct struct {
	kind int // 0 sleep, 1 yield, 2 park, 3 park with timeout, 4 use, 5 unpark
	d    time.Duration
	arg  int // resource, priority bit, or proc to unpark
}

// loopQuantum keeps times on a coarse grid so that many events share an
// instant and the (at, seq) tie-break is exercised.
const loopQuantum = 100 * time.Microsecond

func genLoopProgram(r *rand.Rand) *loopProgram {
	when := func(max int) Time { return Time(time.Duration(r.Intn(max)) * loopQuantum) }
	dur := func(max int) time.Duration { return time.Duration(r.Intn(max)) * loopQuantum }
	pg := &loopProgram{procs: make([]loopProc, 2+r.Intn(5))}
	for i := range pg.procs {
		p := &pg.procs[i]
		if r.Intn(3) == 0 {
			p.start = when(200) + 1
		}
		p.daemon = r.Intn(3) == 0
		for k := 1 + r.Intn(12); k > 0; k-- {
			p.acts = append(p.acts, loopAct{kind: r.Intn(6), d: dur(40), arg: r.Intn(len(pg.procs))})
		}
	}
	for k := r.Intn(30); k > 0; k-- {
		tm := loopTimer{at: when(700), res: -1, unpark: -1, after: r.Intn(2) == 0}
		switch r.Intn(4) {
		case 0:
			tm.stopAt = -1
		case 1:
			tm.stopAt = when(700)
		}
		switch r.Intn(3) {
		case 0:
			tm.res, tm.d = r.Intn(2), dur(5)
		case 1:
			tm.unpark = r.Intn(len(pg.procs))
		}
		pg.timers = append(pg.timers, tm)
	}
	for k := r.Intn(4); k > 0; k-- {
		pg.everys = append(pg.everys, loopEvery{period: dur(30) + loopQuantum, ticks: r.Intn(40)})
	}
	return pg
}

func (pg *loopProgram) install(s *Sim, l *loopLog) {
	rec := func(format string, a ...any) { l.add(s.Now(), fmt.Sprintf(format, a...)) }
	var res [2]Resource
	procs := make([]*Proc, len(pg.procs))
	// A daemon that never stops wakes every proc now and then, so no
	// parked proc waits for ever and the queue never drains.
	s.Every(7*loopQuantum, func() {
		for _, p := range procs {
			if p != nil {
				p.Unpark()
			}
		}
	})
	for i, tm := range pg.timers {
		i, tm := i, tm
		fire := func() {
			rec("timer %d", i)
			if tm.res >= 0 {
				res[tm.res].UseEvent(s, Priority(i%2), tm.d, func() { rec("timer %d charged", i) })
			}
			if tm.unpark >= 0 && procs[tm.unpark] != nil {
				procs[tm.unpark].Unpark()
			}
		}
		var h Timer
		if tm.after {
			h = s.After(tm.at.Duration(), fire)
		} else {
			h = s.At(tm.at, fire)
		}
		switch {
		case tm.stopAt < 0:
			h.Stop()
		case tm.stopAt > 0:
			s.At(tm.stopAt, func() { rec("stop timer %d: %v", i, h.Stop()) })
		}
	}
	for i, ev := range pg.everys {
		i, ev := i, ev
		n := 0
		var h Timer
		h = s.Every(ev.period, func() {
			n++
			rec("every %d tick %d", i, n)
			if n == ev.ticks {
				h.Stop()
			}
		})
	}
	for i, sp := range pg.procs {
		i, sp := i, sp
		body := func(p *Proc) {
			for round := 0; round == 0 || sp.daemon; round++ {
				for k, a := range sp.acts {
					switch a.kind {
					case 0:
						p.Sleep(a.d)
					case 1:
						p.YieldProc()
					case 2:
						p.Park()
					case 3:
						rec("p%d timeout-park unparked=%v", i, p.ParkTimeout(a.d))
					case 4:
						res[a.arg%2].Use(p, Priority(a.arg/2%2), a.d)
					case 5:
						if q := procs[a.arg]; q != nil {
							q.Unpark()
						}
					}
					rec("p%d round %d act %d", i, round, k)
				}
				if sp.daemon {
					p.Sleep(loopQuantum) // a daemon round always advances time
				}
			}
		}
		spawn := func() {
			name := fmt.Sprintf("p%d", i)
			if sp.daemon {
				procs[i] = s.SpawnDaemon(name, body)
			} else {
				procs[i] = s.Spawn(name, body)
			}
		}
		if sp.start > 0 {
			s.At(sp.start, spawn)
		} else {
			spawn()
		}
	}
}

// runOK accepts what a Run may legitimately end with here: success, or
// the deadline (foreground procs still busy at the common end time).
func runOK(t *testing.T, err error) {
	t.Helper()
	if err != nil && !strings.Contains(err.Error(), "deadline") {
		t.Fatal(err)
	}
}

// loopSteps cuts [0, end] into random RunUntil bounds, zero-length steps
// included; the last one is end.
func loopSteps(r *rand.Rand, end Time) []Time {
	var steps []Time
	for t := Time(0); t < end; {
		t += Time(time.Duration(r.Intn(40)) * loopQuantum / 4)
		steps = append(steps, min(t, end))
	}
	return append(steps, end)
}

// loopsDigest is the SHA-256 of the Run+RunUntil dispatch logs of seeds
// 1–60, recorded when every proc wake-up still went through the
// scheduler's channel hand-off. The inline self-wake must reproduce that
// order exactly: no dispatch or tracer record reordered, dropped or added.
const loopsDigest = "3784a2dc2ba6812afdebf776a8d1754d631044d8e479ea14f6ac243ab3e71f0a"

// TestLoopsAgree is the one-loop property: every way of driving the
// scheduler to a common time T — Sim.Run then RunUntil(T), RunUntil in
// random steps, and a one-shard Group serially and on worker goroutines
// — dispatches a random program identically, and as the channel path did
// (loopsDigest). No entry of the log runs past the bound that was active,
// and every RunUntil leaves the clock exactly at its bound.
func TestLoopsAgree(t *testing.T) {
	const end = Time(50 * time.Millisecond)
	digest := sha256.New()
	var inlined uint64 // wake-ups the fast path took, over every run
	for seed := int64(1); seed <= 60; seed++ {
		pg := genLoopProgram(rand.New(rand.NewSource(seed)))
		steps := loopSteps(rand.New(rand.NewSource(-seed)), end)

		standalone := func(run bool) []loopEntry {
			s := New(seed)
			l := &loopLog{t: t, bound: end}
			s.SetTracer(l)
			pg.install(s, l)
			todo := steps
			if run {
				s.Deadline = end
				runOK(t, s.Run())
				todo = []Time{end}
			}
			for _, b := range todo {
				l.bound = b
				if err := s.RunUntil(b); err != nil {
					t.Fatal(err)
				}
				if s.Now() != b {
					t.Fatalf("seed %d: RunUntil(%v) left the clock at %v", seed, b, s.Now())
				}
			}
			inlined += s.Inlined()
			return l.entries
		}
		grouped := func(serial bool) []loopEntry {
			g := NewGroup(seed, 1)
			g.SingleThreaded = serial
			g.Deadline = end
			l := &loopLog{t: t, bound: end}
			g.Shard(0).SetTracer(l)
			pg.install(g.Shard(0), l)
			runOK(t, g.Run())
			todo := []Time{end}
			if !serial {
				todo = steps
			}
			for _, b := range todo {
				// Run may have gone past an early step; the clock never
				// goes back.
				at := max(b, g.Now())
				l.bound = b
				if err := g.RunUntil(b); err != nil {
					t.Fatal(err)
				}
				if g.Now() != at {
					t.Fatalf("seed %d: Group.RunUntil(%v) left the clock at %v", seed, b, g.Now())
				}
			}
			inlined += g.Shard(0).Inlined()
			return l.entries
		}

		want := standalone(true)
		if len(want) == 0 {
			t.Fatalf("seed %d: empty log", seed)
		}
		for _, e := range want {
			fmt.Fprintf(digest, "%d %d %s\n", seed, e.at, e.label)
		}
		for name, got := range map[string][]loopEntry{
			"RunUntil steps":        standalone(false),
			"Group, serial":         grouped(true),
			"Group, worker threads": grouped(false),
		} {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %s diverges from Run+RunUntil at entry %d of %d/%d",
					seed, name, firstDiff(got, want), len(got), len(want))
			}
		}
	}
	if got := hex.EncodeToString(digest.Sum(nil)); got != loopsDigest {
		t.Errorf("dispatch logs digest %s, want the channel path's %s", got, loopsDigest)
	}
	if inlined == 0 {
		t.Error("no wake-up ran inline: the self-wake fast path was never taken")
	}
}

func firstDiff(a, b []loopEntry) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// tickProgram adds periodic procs to a loopProgram, shaped like the
// protocol timers: each ticker wakes every period and, under a mutex that
// holders keep across sleeps, works off a count that seeded events raise,
// until an event sets its stop flag. A holder is a proc, or a pair of
// events queued up front, which can free the mutex with waiters queued
// just before a ticker's wake-up at the same instant.
type tickProgram struct {
	tickers []loopTicker
	bumps   []loopBump
	holders []loopHolder
}

type loopTicker struct {
	period, work time.Duration
	stopAt       Time
}

type loopBump struct {
	at     Time
	ticker int
}

type loopHolder struct {
	start  Time
	hold   time.Duration
	rounds int
	events bool
}

func genTickProgram(r *rand.Rand) *tickProgram {
	tp := &tickProgram{tickers: make([]loopTicker, 2+r.Intn(4))}
	for i := range tp.tickers {
		tp.tickers[i] = loopTicker{
			period: time.Duration(1+r.Intn(6)) * loopQuantum,
			work:   time.Duration(r.Intn(4)) * loopQuantum,
			stopAt: Time(time.Duration(100+r.Intn(500)) * loopQuantum),
		}
	}
	for k := r.Intn(25); k > 0; k-- {
		tp.bumps = append(tp.bumps, loopBump{Time(time.Duration(r.Intn(600)) * loopQuantum), r.Intn(len(tp.tickers))})
	}
	for k := 1 + r.Intn(4); k > 0; k-- {
		tp.holders = append(tp.holders, loopHolder{
			Time(time.Duration(r.Intn(300)) * loopQuantum), time.Duration(1+r.Intn(4)) * loopQuantum, 1 + r.Intn(30), r.Intn(2) == 0})
	}
	return tp
}

// install builds the program on s. With tick the tickers are loop procs
// that end each run in Tick; without, a Sleep loop whose body does
// nothing while idle — the two must dispatch identically.
func (tp *tickProgram) install(s *Sim, l *loopLog, tick bool) (tickers []*Proc) {
	rec := func(format string, a ...any) { l.add(s.Now(), fmt.Sprintf(format, a...)) }
	var mu Mutex
	pending := make([]int, len(tp.tickers))
	stop := make([]bool, len(tp.tickers))
	for _, b := range tp.bumps {
		s.At(b.at, func() { pending[b.ticker]++ })
	}
	for i, tk := range tp.tickers {
		s.At(tk.stopAt, func() { stop[i] = true })
		idle := func() bool { return !stop[i] && mu.Idle() && pending[i] == 0 }
		work := func(p *Proc) {
			mu.Lock(p)
			if pending[i] > 0 {
				pending[i]--
				rec("t%d works", i)
				p.Sleep(tk.work)
			}
			mu.Unlock()
		}
		name := fmt.Sprintf("t%d", i)
		if tick {
			tickers = append(tickers, s.SpawnLoop(name, func(p *Proc) Wait {
				if p.Woke() {
					if stop[i] {
						rec("t%d exits", i)
						return Exit
					}
					work(p)
				}
				if stop[i] {
					return Exit
				}
				return Tick(tk.period, idle)
			}))
			continue
		}
		tickers = append(tickers, s.SpawnDaemon(name, func(p *Proc) {
			for !stop[i] {
				p.Sleep(tk.period)
				if stop[i] {
					rec("t%d exits", i)
					return
				}
				work(p)
			}
		}))
	}
	for i, h := range tp.holders {
		if h.events {
			for k := range h.rounds {
				at := h.start.Add(time.Duration(2*k) * h.hold)
				locked := false
				s.At(at, func() { locked = mu.TryLock() })
				s.At(at.Add(h.hold), func() {
					if locked {
						mu.Unlock()
					}
				})
			}
			continue
		}
		s.At(h.start, func() {
			s.SpawnDaemon(fmt.Sprintf("h%d", i), func(p *Proc) {
				for range h.rounds {
					mu.Lock(p)
					rec("h%d holds", i)
					p.Sleep(h.hold)
					mu.Unlock()
					p.Sleep(h.hold)
				}
			})
		})
	}
	return tickers
}

// TestSleepIdle checks the idle-tick fast path two ways: seeded programs
// whose tickers are loop procs ending each run in Tick dispatch exactly
// as the same programs written as a plain Sleep loop (standalone and on
// a one-shard Group's worker goroutine), and pinned cases fix when the
// proc is run.
func TestSleepIdle(t *testing.T) {
	const end = Time(60 * time.Millisecond)
	var idled uint64
	for seed := int64(1); seed <= 40; seed++ {
		pg := genLoopProgram(rand.New(rand.NewSource(seed)))
		tp := genTickProgram(rand.New(rand.NewSource(1000 + seed)))
		steps := loopSteps(rand.New(rand.NewSource(-seed)), end)
		run := func(tick, grouped bool) ([]loopEntry, uint64) {
			l := &loopLog{t: t, bound: end}
			var s *Sim
			var g *Group
			if grouped {
				g = NewGroup(seed, 1)
				s = g.Shard(0)
			} else {
				s = New(seed)
				s.Deadline = end
			}
			s.SetTracer(l)
			pg.install(s, l)
			tp.install(s, l, tick)
			if grouped {
				for _, b := range steps {
					l.bound = b
					if err := g.RunUntil(b); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				runOK(t, s.Run())
				if err := s.RunUntil(end); err != nil {
					t.Fatal(err)
				}
			}
			if !tick && s.Idled() != 0 {
				t.Fatalf("seed %d: a Sleep loop counted %d idle ticks", seed, s.Idled())
			}
			idled += s.Idled()
			l.entries = append(l.entries, loopEntry{s.Now(), fmt.Sprintf("dispatched %d, seq %d", s.Dispatched(), s.seq)})
			return l.entries, s.Idled()
		}
		for _, grouped := range []bool{false, true} {
			want, _ := run(false, grouped)
			got, n := run(true, grouped)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (grouped %v): Tick diverges from the Sleep loop at entry %d of %d/%d (%d idle ticks)",
					seed, grouped, firstDiff(got, want), len(got), len(want), n)
			}
		}
	}
	if idled == 0 {
		t.Error("no tick was idle: the fast path was never taken")
	}

	// ticker spawns a loop proc that ends every run in Tick(10) for ever,
	// counting the runs that follow a tick and the instant it exits on
	// stop.
	type ticker struct{ resumed, exitAt Time }
	spawn := func(s *Sim, idle func() bool, stop *bool) *ticker {
		tk := &ticker{exitAt: -1}
		s.SpawnLoop("t", func(p *Proc) Wait {
			if p.Woke() {
				tk.resumed++
				if stop != nil && *stop {
					tk.exitAt = p.Now()
					return Exit
				}
			}
			return Tick(10, idle)
		})
		return tk
	}
	always := func() bool { return true }
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name                     string
		run                      func() (*Sim, *ticker)
		resumed, exitAt          Time
		idled, dispatched, inlin uint64
		now                      Time
	}{
		{"an idle tick does not resume the proc", func() (*Sim, *ticker) {
			s := New(1)
			tk := spawn(s, always, nil)
			s.Spawn("fg", func(p *Proc) { p.Sleep(35) })
			must(s.Run())
			return s, tk
		}, 0, -1, 3, 6, 0, 35},
		{"a busy tick resumes it; its next wake-up then runs inline", func() (*Sim, *ticker) {
			s := New(1)
			tk := spawn(s, func() bool { return false }, nil)
			s.Spawn("fg", func(p *Proc) { p.Sleep(35) })
			must(s.Run())
			return s, tk
		}, 3, -1, 0, 6, 2, 35},
		{"a stop flag makes the proc exit at the tick it would have", func() (*Sim, *ticker) {
			s := New(1)
			stop := false
			s.At(25, func() { stop = true })
			tk := spawn(s, func() bool { return !stop }, &stop)
			s.Spawn("fg", func(p *Proc) { p.Sleep(40) })
			must(s.Run())
			return s, tk
		}, 1, 30, 2, 7, 0, 40},
		{"a RunUntil bound between ticks leaves the next one queued", func() (*Sim, *ticker) {
			s := New(1)
			s.Every(7, func() {})
			tk := spawn(s, always, nil)
			must(s.RunUntil(25))
			if s.Idled() != 2 || s.Dispatched() != 6 {
				t.Errorf("RunUntil(25): %d idle of %d dispatched, want 2 of 6", s.Idled(), s.Dispatched())
			}
			must(s.RunUntil(45))
			return s, tk
		}, 0, -1, 4, 11, 0, 45},
		{"a one-shard Group runs idle ticks on its worker goroutine", func() (*Sim, *ticker) {
			g := NewGroup(1, 1)
			s := g.Shard(0)
			s.Every(7, func() {})
			tk := spawn(s, always, nil)
			must(g.RunUntil(45))
			return s, tk
		}, 0, -1, 4, 11, 0, 45},
	}
	for _, c := range cases {
		s, tk := c.run()
		if tk.resumed != c.resumed || tk.exitAt != c.exitAt || s.Idled() != c.idled ||
			s.Dispatched() != c.dispatched || s.Inlined() != c.inlin || s.Now() != c.now {
			t.Errorf("%s: resumed %d, exit at %v, %d idle and %d inline of %d dispatched, clock %v; want %d, %v, %d, %d of %d, %v",
				c.name, tk.resumed, tk.exitAt, s.Idled(), s.Inlined(), s.Dispatched(), s.Now(),
				c.resumed, c.exitAt, c.idled, c.inlin, c.dispatched, c.now)
		}
	}
}
