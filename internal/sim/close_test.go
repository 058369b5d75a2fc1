package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// poolLen is the number of idle coroutines in the process-wide pool.
func poolLen() int {
	coroPool.Lock()
	defer coroPool.Unlock()
	return len(coroPool.free.list)
}

// TestCloseReapsEverything parks a proc in every way a proc can wait,
// leaves one never started, and closes the sim: every goroutine the run
// made is back in the pool, nothing is left parked, the tracer saw none
// of the unwinding, a second Close does nothing and the sim cannot run.
// The first proc waits as the stack's condWait does, with the mutex its
// deferred Unlock expects dropped: unwound first, that Unlock takes the
// holder's lock, and the holder's own Unlock then finds it free. Both
// panics are teardown, not failures.
func TestCloseReapsEverything(t *testing.T) {
	before, pooled := runtime.NumGoroutine(), poolLen()
	s := New(1)
	log := loopLog{t: t, bound: Time(time.Hour)}
	s.SetTracer(&log)
	var m Mutex
	var cond Cond
	q := NewChan[int]()
	var deferStarted, deferFinished bool
	s.SpawnDaemon("condwaiter", func(p *Proc) {
		m.Lock(p)
		defer m.Unlock()
		m.Unlock()
		cond.Wait(p)
		m.Lock(p)
	})
	s.SpawnDaemon("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	s.SpawnLoop("ticker", func(p *Proc) Wait { return Tick(time.Millisecond, func() bool { return true }) })
	s.SpawnDaemon("holder", func(p *Proc) {
		m.Lock(p)
		defer m.Unlock()
		p.Sleep(time.Hour)
	})
	s.SpawnDaemon("waiter", func(p *Proc) { m.Lock(p) })
	s.SpawnDaemon("receiver", func(p *Proc) { q.Recv(p) })
	s.SpawnDaemon("deferrer", func(p *Proc) {
		defer func() {
			deferStarted = true
			p.Sleep(time.Second)
			deferFinished = true
		}()
		p.Park()
	})
	runOK(t, s.RunFor(10*time.Millisecond))
	s.SpawnDaemon("never", func(p *Proc) { t.Error("a proc spawned after the run started under Close") })
	if got := len(s.ParkedProcs()); got != 7 {
		t.Fatalf("%d procs parked before Close, want 7: %v", got, s.ParkedProcs())
	}

	traced := len(log.entries)
	s.Close()
	if len(log.entries) != traced {
		t.Errorf("the tracer saw %d records during Close", len(log.entries)-traced)
	}
	if !deferStarted || deferFinished {
		t.Errorf("deferred call: started %v, finished %v; want it run and unwound at its Sleep", deferStarted, deferFinished)
	}
	if names := s.ParkedProcs(); len(names) != 0 {
		t.Errorf("parked after Close: %v", names)
	}
	want := before + poolLen() - pooled
	if got := runtime.NumGoroutine(); got > want {
		t.Errorf("%d goroutines after Close, want at most %d (%d before, pool grew by %d)", got, want, before, poolLen()-pooled)
	}
	idle := poolLen()
	s.Close()
	if poolLen() != idle {
		t.Errorf("a second Close moved the pool from %d to %d coroutines", idle, poolLen())
	}
	if err := s.Run(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Run after Close = %v, want a closed error", err)
	}
}

// TestPanicAfterReuseNamesProc: a body that panics on a coroutine another
// proc ran before it is still reported under its own name.
func TestPanicAfterReuseNamesProc(t *testing.T) {
	s := New(1)
	var first *coro
	s.Spawn("first", func(p *Proc) { first = p.co })
	runOK(t, s.Run())
	s.Spawn("second", func(p *Proc) {
		if p.co != first {
			t.Error("second proc did not reuse the first one's coroutine")
		}
		panic("boom")
	})
	defer func() {
		r := recover()
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), `process "second" panicked: boom`) {
			t.Fatalf("recovered %v, want the second proc named", r)
		}
	}()
	_ = s.Run()
}

// TestGoexitFailsRun: a proc body that calls runtime.Goexit, as t.FailNow
// does, fails a Group run on worker goroutines with an error naming the
// proc; the coordinator does not wait for the worker it took down.
func TestGoexitFailsRun(t *testing.T) {
	g := NewGroup(1, 2)
	g.Shard(1).Spawn("quitter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		runtime.Goexit()
	})
	g.Shard(0).Spawn("sleeper", func(p *Proc) { p.Sleep(time.Second) })
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		_ = g.Run()
	}()
	select {
	case r := <-done:
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), `process "quitter" called runtime.Goexit`) {
			t.Fatalf("Group.Run raised %v, want the quitter's Goexit", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Group.Run hung after a proc called runtime.Goexit")
	}
}

// TestSpawnAllocs: with the pool warm, a spawned proc that runs and exits
// allocates only its Proc. A goroutine and a channel per proc took 5.
func TestSpawnAllocs(t *testing.T) {
	s := New(1)
	body := func(p *Proc) { p.Sleep(5) }
	cycle := func() {
		s.Spawn("x", body)
		_ = s.Run()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n > 1 {
		t.Fatalf("spawn+exit allocates %v times, want at most 1", n)
	}
}
